"""Greedy stage allocation over the table dependency graph.

The allocator walks the program's tables in control order and places each
one at the earliest stage that satisfies

* every TDG edge's minimum separation (MATCH/ACTION: strictly after the
  source's *last* stage; SUCCESSOR: not before it; REVERSE: not before the
  reader's *first* stage),
* program order (a table never starts before an earlier table's first
  stage — RMT match-action order is the program order — unless it fits
  *whole* into an earlier stage, the packing §3.3's memory trimming
  banks on),
* the per-stage SRAM/TCAM block budgets and the table-slot limit.

A table whose match memory exceeds what its first stage can offer *spills*
across consecutive stages (the paper's ``IP IP`` FIB).  Register arrays
cannot be split — each array must land whole in a single stage of its
owner's span (one stateful ALU per array); an array bigger than a stage's
SRAM raises :class:`~repro.exceptions.AllocationError`.

When the program needs more stages than the target has, allocation
continues into *virtual* stages (§2.2: P2GO still compiles and profiles
programs that do not fit) and the result reports ``fits = False`` instead
of failing.

The egress pipeline shares every stage's physical memory with the ingress
pipeline, but its dependency timeline restarts at stage 0 — egress tables
run after the traffic manager, so they never need to sit *after* ingress
tables that merely precede them in time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analysis.dependencies import Dependency, DependencyGraph
from repro.analysis.structure import ProgramAnalysis
from repro.exceptions import AllocationError
from repro.p4.program import Program
from repro.target.model import TargetModel
from repro.target.resources import TableFootprint, compute_footprints


@dataclass(frozen=True)
class Placement:
    """Where one table landed."""

    table: str
    first_stage: int
    last_stage: int
    #: ``(stage, blocks)`` of match memory per spanned stage.
    match_blocks_by_stage: Tuple[Tuple[int, int], ...]
    #: ``(register name, stage)`` for every owned array.
    register_stage: Tuple[Tuple[str, int], ...]

    def stages(self) -> List[int]:
        """The contiguous stage span, first to last."""
        return list(range(self.first_stage, self.last_stage + 1))


@dataclass
class _StageState:
    """Mutable per-stage bookkeeping while allocating."""

    sram_free: int
    tcam_free: int
    slots_free: int


@dataclass
class Allocation:
    """The full allocation: placements plus per-stage usage accounting."""

    placements: Dict[str, Placement]
    stages_used: int
    sram_used_by_stage: List[int]
    tcam_used_by_stage: List[int]
    tables_by_stage: List[List[str]]

    def stage_map(self) -> List[List[str]]:
        """Tables present in each used stage, in placement order."""
        return [list(tables) for tables in self.tables_by_stage]


class _Allocator:
    def __init__(self, program: Program, target: TargetModel):
        self.program = program
        self.target = target
        self.stages: List[_StageState] = []
        self.placements: Dict[str, Placement] = {}
        #: Dependencies pointing at each table, merged over pipelines.
        self.incoming: Dict[str, List[Dependency]] = {}

    # ------------------------------------------------------------------

    def _stage(self, index: int) -> _StageState:
        while len(self.stages) <= index:
            self.stages.append(
                _StageState(
                    sram_free=self.target.sram_blocks_per_stage,
                    tcam_free=self.target.tcam_blocks_per_stage,
                    slots_free=self.target.max_tables_per_stage,
                )
            )
        return self.stages[index]

    def _add_graph(self, graph: DependencyGraph) -> None:
        for dep in graph.edges():
            self.incoming.setdefault(dep.dst, []).append(dep)

    def _dep_min_start(self, table: str) -> int:
        start = 0
        for dep in self.incoming.get(table, ()):
            src = self.placements.get(dep.src)
            if src is None:
                continue
            if dep.kind.aligns_to_first_stage:
                start = max(start, src.first_stage)
            else:
                start = max(
                    start, src.last_stage + dep.min_stage_separation
                )
        return start

    # ------------------------------------------------------------------

    def _try_place(
        self,
        footprint: TableFootprint,
        start: int,
        single_stage_only: bool = False,
    ) -> Optional[Placement]:
        """Attempt a placement spanning consecutive stages from ``start``.

        Register arrays are pinned to the start stage; match memory then
        greedily fills what each stage has left, spilling into later
        stages.  Returns None when the start stage cannot host the
        registers, the span stalls (a stage contributes nothing), a
        spanned stage has no free table slot, or ``single_stage_only`` is
        set and the table does not fit whole in the start stage.
        """
        pending_registers = sorted(
            footprint.register_blocks(self.target),
            key=lambda item: (-item[1], item[0]),
        )
        remaining_match = footprint.match_blocks(self.target)
        # Ternary tables drag SRAM side-memory (action data + entry
        # overhead) along with their TCAM entries: each spanned stage must
        # host the overhead of the entries whose keys live there.
        key_bytes_per_entry = 0
        overhead_per_entry = 0
        remaining_entries = 0
        if footprint.is_ternary and footprint.match_bytes:
            size = self.program.tables[footprint.table].size
            key_bytes_per_entry = footprint.match_bytes // size
            overhead_per_entry = footprint.overhead_bytes // size
            remaining_entries = size
        match_by_stage: List[Tuple[int, int]] = []
        register_stage: List[Tuple[str, int]] = []
        sram_taken: Dict[int, int] = {}
        tcam_taken: Dict[int, int] = {}
        spanned: List[int] = []

        stage_index = start
        while True:
            stage = self._stage(stage_index)
            if stage.slots_free <= 0:
                return None
            progress = False
            sram_free = stage.sram_free
            tcam_free = stage.tcam_free
            if stage_index == start:
                # Register arrays live where the table executes — the
                # span's first stage (one stateful ALU per array, wired to
                # this table's actions).  A start stage that cannot host
                # them all fails the whole candidate.
                for name, blocks in pending_registers:
                    if blocks > sram_free:
                        return None
                    register_stage.append((name, stage_index))
                    sram_taken[stage_index] = (
                        sram_taken.get(stage_index, 0) + blocks
                    )
                    sram_free -= blocks
                    progress = True
                pending_registers = []
            if remaining_match > 0:
                pool_free = (
                    tcam_free if footprint.is_ternary else sram_free
                )
                take = min(remaining_match, pool_free)
                if take > 0 and overhead_per_entry:
                    capacity = (
                        take * self.target.tcam_block_bytes
                        // key_bytes_per_entry
                    )
                    entries_here = min(remaining_entries, capacity)
                    side_blocks = self.target.sram_blocks_for(
                        entries_here * overhead_per_entry
                    )
                    if side_blocks > sram_free:
                        return None  # stage cannot host the side memory
                    sram_free -= side_blocks
                    sram_taken[stage_index] = (
                        sram_taken.get(stage_index, 0) + side_blocks
                    )
                    remaining_entries -= entries_here
                if take > 0:
                    match_by_stage.append((stage_index, take))
                    if footprint.is_ternary:
                        tcam_taken[stage_index] = (
                            tcam_taken.get(stage_index, 0) + take
                        )
                    else:
                        sram_taken[stage_index] = (
                            sram_taken.get(stage_index, 0) + take
                        )
                    remaining_match -= take
                    progress = True
            if not progress:
                if (
                    stage_index == start
                    and not pending_registers
                    and remaining_match == 0
                ):
                    progress = True  # slot-only table (keyless, stateless)
                else:
                    return None
            spanned.append(stage_index)
            if not pending_registers and remaining_match == 0:
                break
            if single_stage_only:
                return None
            stage_index += 1

        # Commit.
        for index in spanned:
            self._stage(index).slots_free -= 1
        for index, blocks in sram_taken.items():
            self._stage(index).sram_free -= blocks
        for index, blocks in tcam_taken.items():
            self._stage(index).tcam_free -= blocks
        return Placement(
            table=footprint.table,
            first_stage=spanned[0],
            last_stage=spanned[-1],
            match_blocks_by_stage=tuple(match_by_stage),
            register_stage=tuple(register_stage),
        )

    def _place(
        self, footprint: TableFootprint, dep_min: int, floor: int
    ) -> Placement:
        """Place at the earliest feasible start stage at or after
        ``dep_min``.

        Between ``dep_min`` and the control-order ``floor`` the table may
        only *slide* into an earlier stage it fits in whole (the §3.3
        move: a trimmed resource packs into a predecessor's stage).  From
        ``floor`` on, normal multi-stage spilling applies; virtual stages
        make that total for any table whose registers fit a stage.
        """
        for name, blocks in footprint.register_blocks(self.target):
            if blocks > self.target.sram_blocks_per_stage:
                raise AllocationError(
                    f"register {name!r} needs {blocks} SRAM blocks but a "
                    f"stage of target {self.target.name!r} has only "
                    f"{self.target.sram_blocks_per_stage}; arrays cannot "
                    "span stages"
                )
        start = dep_min
        # A start beyond every occupied stage is a fresh, empty stage; if
        # placement fails even there the table can never be placed.
        horizon = max(len(self.stages), dep_min, floor) + 1
        while True:
            placement = self._try_place(
                footprint, start, single_stage_only=start < floor
            )
            if placement is not None:
                return placement
            start += 1
            if start > horizon:
                raise AllocationError(
                    f"table {footprint.table!r} cannot be placed on target "
                    f"{self.target.name!r} (needs "
                    f"{footprint.match_blocks(self.target)} match blocks, "
                    f"{sum(b for _r, b in footprint.register_blocks(self.target))} "
                    "register blocks in one stage)"
                )

    # ------------------------------------------------------------------

    def run(
        self,
        dependency_graph: DependencyGraph,
        egress_graph: Optional[DependencyGraph],
    ) -> Allocation:
        footprints = compute_footprints(self.program)
        self._add_graph(dependency_graph)
        if egress_graph is not None:
            self._add_graph(egress_graph)

        for pipeline in (
            self.program.ingress_tables(),
            self.program.egress_tables(),
        ):
            floor = 0  # each pipeline's timeline restarts at stage 0
            for table in pipeline:
                placement = self._place(
                    footprints[table],
                    self._dep_min_start(table),
                    floor,
                )
                self.placements[table] = placement
                floor = max(floor, placement.first_stage)

        stages_used = 0
        for placement in self.placements.values():
            stages_used = max(stages_used, placement.last_stage + 1)
        capacity_sram = self.target.sram_blocks_per_stage
        capacity_tcam = self.target.tcam_blocks_per_stage
        sram_used = [
            capacity_sram - self._stage(i).sram_free
            for i in range(stages_used)
        ]
        tcam_used = [
            capacity_tcam - self._stage(i).tcam_free
            for i in range(stages_used)
        ]
        tables_by_stage: List[List[str]] = [[] for _ in range(stages_used)]
        for table, placement in self.placements.items():
            for index in placement.stages():
                tables_by_stage[index].append(table)
        for tables in tables_by_stage:
            tables.sort()  # deterministic, placement-order independent
        return Allocation(
            placements=self.placements,
            stages_used=stages_used,
            sram_used_by_stage=sram_used,
            tcam_used_by_stage=tcam_used,
            tables_by_stage=tables_by_stage,
        )


def allocate(
    program: Program, analysis: ProgramAnalysis, target: TargetModel
) -> Allocation:
    """Allocate every applied table of ``program`` to pipeline stages.

    ``analysis`` (:func:`repro.analysis.structure.analyse`) carries the
    ingress TDG and, for a program with egress tables, the egress one.
    Raises :class:`~repro.exceptions.AllocationError` for programs no
    number of stages could hold (an unsplittable register array larger
    than a stage's SRAM).
    """
    return _Allocator(program, target).run(analysis.ingress, analysis.egress)
