"""Table dependency graph (TDG) construction.

Implements the dependency taxonomy the paper's example explains (§2.1,
Fig. 1):

* **MATCH** — a table matches (via its keys or a guarding condition) on a
  field another table's action modifies; the consumer must be in a strictly
  later stage.
* **ACTION** — two tables' actions modify the same field (e.g. two drop
  actions both writing the egress port), or one's action reads what the
  other's wrote, or both touch the same register; they need different
  stages unless proven mutually exclusive.
* **REVERSE** — a later table writes a field an earlier one matches on or
  reads (anti-dependency); both may share a stage (matches and action
  reads see the stage's input PHV) but the writer must never land in an
  earlier stage.
* **SUCCESSOR** — a table is applied inside another's hit/miss branch;
  RMT predication lets them share a stage, only ordering is constrained.

Dependencies are derived *per action pair* along feasible execution paths,
so a program where conflicting actions can never co-execute (e.g. one table
applied only on the other's miss) genuinely has no ACTION dependency —
that's the property phase 2's rewrite exploits.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.analysis.control_graph import ControlGraph
from repro.analysis.graph import Digraph
from repro.p4.control import iter_applies
from repro.p4.expressions import Expr, FieldRef, fields_read
from repro.p4.program import Program


class DependencyKind(enum.Enum):
    MATCH = "match"
    ACTION = "action"
    #: Anti-dependency: the later table *writes* what the earlier one
    #: matches on or reads.  Same-stage placement is legal (within a
    #: stage, every match and action read sees the stage's input PHV),
    #: but the writer must never land in an earlier stage than the
    #: reader.
    REVERSE = "reverse"
    SUCCESSOR = "successor"

    @property
    def min_stage_separation(self) -> int:
        """Minimum stage distance between the two tables' placements."""
        if self in (DependencyKind.SUCCESSOR, DependencyKind.REVERSE):
            return 0
        return 1

    @property
    def aligns_to_first_stage(self) -> bool:
        """REVERSE deps constrain against the reader's *first* stage (its
        match executes there); the others against the source's last."""
        return self is DependencyKind.REVERSE

    @property
    def rank(self) -> int:
        """Strength order for picking a pair's dominant kind."""
        return {"match": 3, "action": 2, "reverse": 1, "successor": 0}[
            self.value
        ]


@dataclass(frozen=True)
class DependencyCause:
    """Why a dependency exists: the concrete action pair and fields.

    ``dst_action`` is ``None`` for MATCH causes (the consumer's match phase,
    not a specific action, reads the field).
    """

    kind: DependencyKind
    src_action: str
    dst_action: Optional[str]
    fields: FrozenSet[str]
    registers: FrozenSet[str] = frozenset()


@dataclass(frozen=True)
class Dependency:
    """An edge of the TDG: ``src`` must precede ``dst``."""

    src: str
    dst: str
    kind: DependencyKind
    causes: Tuple[DependencyCause, ...]

    @property
    def min_stage_separation(self) -> int:
        return self.kind.min_stage_separation


class DependencyGraph:
    """The TDG plus the query API the compiler and optimizer use.

    A value over table *names*: it holds no program, so one graph
    serves every program of the same structure."""

    def __init__(
        self,
        tables: Iterable[str],
        dependencies: Dict[Tuple[str, str], Dependency],
    ):
        self.dependencies = dependencies
        self.digraph: Digraph[str] = Digraph()
        for table in tables:
            self.digraph.add_node(table)
        for (src, dst), dep in dependencies.items():
            self.digraph.add_edge(src, dst, weight=dep.min_stage_separation)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DependencyGraph):
            return NotImplemented
        return (
            self.dependencies == other.dependencies
            and self.digraph.nodes() == other.digraph.nodes()
        )

    def edges(self) -> List[Dependency]:
        return list(self.dependencies.values())

    def between(self, src: str, dst: str) -> Optional[Dependency]:
        return self.dependencies.get((src, dst))

    def longest_path(self) -> Tuple[int, List[str]]:
        return self.digraph.longest_path()

    def critical_dependencies(self) -> List[Dependency]:
        """Dependencies on some maximum-weight path — phase 2's candidate
        pool (§3.2: only those can shorten the pipeline)."""
        critical = self.digraph.critical_edges()
        return [
            dep
            for (src, dst), dep in self.dependencies.items()
            if (src, dst) in critical
        ]


def _actions_for_outcome(program: Program, table_name: str, hit: bool) -> Tuple[str, ...]:
    table = program.tables[table_name]
    if hit:
        return table.actions
    return (table.default_action,)


def build_dependency_graph(
    program: Program,
    control_graph: Optional[ControlGraph] = None,
    control=None,
) -> DependencyGraph:
    """Construct the TDG from the control graph's pair keys (plus
    structural successors).

    Analyzes the ingress by default; pass ``control=program.egress`` (or
    a prebuilt ``control_graph``) for the egress pipeline's TDG.
    """
    cg = (
        control_graph
        if control_graph is not None
        else ControlGraph(program, control)
    )
    causes: Dict[Tuple[str, str], Set[DependencyCause]] = {}

    def record(src: str, dst: str, cause: DependencyCause) -> None:
        causes.setdefault((src, dst), set()).add(cause)

    action_writes: Dict[str, FrozenSet[FieldRef]] = {}
    action_reads: Dict[str, FrozenSet[FieldRef]] = {}
    action_regs: Dict[str, FrozenSet[str]] = {}
    for name, action in program.actions.items():
        action_writes[name] = action.writes()
        action_reads[name] = action.reads()
        action_regs[name] = action.registers_read() | action.registers_written()
    match_fields = {
        name: frozenset(table.match_fields)
        for name, table in program.tables.items()
    }
    # What each guard condition reads, keyed by the identity of its
    # expression: the control tree keeps it alive for the whole call.
    guard_reads: Dict[int, FrozenSet[FieldRef]] = {}

    def reads(guard) -> FrozenSet[FieldRef]:
        if id(guard) not in guard_reads:
            guard_reads[id(guard)] = fields_read(guard)
        return guard_reads[id(guard)]

    def fold(
        a_table: str,
        a_hit: bool,
        b_table: str,
        b_hit: bool,
        guards: Tuple[Expr, ...],
    ) -> None:
        """Record the causes of one (A outcome, B outcome, guards) pair."""
        # Fields B's match phase consumes: its keys plus any guard
        # condition evaluated after A.
        match_reads = match_fields[b_table].union(
            *(reads(guard) for guard in guards)
        )
        a_match_reads = match_fields[a_table]
        b_actions = _actions_for_outcome(program, b_table, b_hit)
        for a_name in _actions_for_outcome(program, a_table, a_hit):
            w_a = action_writes[a_name]
            overlap_match = w_a & match_reads
            if overlap_match:
                record(
                    a_table,
                    b_table,
                    DependencyCause(
                        kind=DependencyKind.MATCH,
                        src_action=a_name,
                        dst_action=None,
                        fields=frozenset(f.path for f in overlap_match),
                    ),
                )
            for b_name in b_actions:
                overlap_fields = w_a & (
                    action_writes[b_name] | action_reads[b_name]
                )
                overlap_regs = action_regs[a_name] & action_regs[b_name]
                if overlap_fields or overlap_regs:
                    record(
                        a_table,
                        b_table,
                        DependencyCause(
                            kind=DependencyKind.ACTION,
                            src_action=a_name,
                            dst_action=b_name,
                            fields=frozenset(f.path for f in overlap_fields),
                            registers=frozenset(overlap_regs),
                        ),
                    )
                # Anti-dependency: the later table writes what the
                # earlier one matches on or reads; the writer must not
                # land in an earlier stage.
                overlap_anti = action_writes[b_name] & (
                    a_match_reads | action_reads[a_name]
                )
                if overlap_anti:
                    record(
                        a_table,
                        b_table,
                        DependencyCause(
                            kind=DependencyKind.REVERSE,
                            src_action=a_name,
                            dst_action=b_name,
                            fields=frozenset(f.path for f in overlap_anti),
                        ),
                    )

    # A pair's causes depend only on the two tables, their outcomes and
    # B's guards evaluated after A: the control graph yields each
    # distinct key once, in the order the per-path loop first meets it.
    for key in cg.keys:
        fold(*key)

    # Structural successor dependencies: applied inside a hit/miss branch.
    for apply_node in iter_applies(cg.control):
        for branch in (apply_node.on_hit, apply_node.on_miss):
            if branch is None:
                continue
            for inner in iter_applies(branch):
                key = (apply_node.table, inner.table)
                causes.setdefault(key, set()).add(
                    DependencyCause(
                        kind=DependencyKind.SUCCESSOR,
                        src_action="<apply>",
                        dst_action=None,
                        fields=frozenset(),
                    )
                )

    dependencies: Dict[Tuple[str, str], Dependency] = {}
    for (src, dst), cause_set in causes.items():
        dominant = max(cause_set, key=lambda c: c.kind.rank).kind
        ordered = tuple(
            sorted(
                cause_set,
                key=lambda c: (
                    -c.kind.rank,
                    c.src_action,
                    c.dst_action or "",
                    sorted(c.fields),
                ),
            )
        )
        dependencies[(src, dst)] = Dependency(
            src=src, dst=dst, kind=dominant, causes=ordered
        )
    return DependencyGraph(program.tables, dependencies)


@dataclass(frozen=True)
class FigureEdge:
    """A display edge for dependency-graph figures (paper Fig. 1 style)."""

    src: str
    dst: str
    kind: str  # "action" (violet dash-dotted), "match" (blue dashed),
    #            "control" (black)


def figure_edges(program: Program) -> List[FigureEdge]:
    """Render the TDG the way Fig. 1 draws it.

    Conditions appear as their own nodes: a table writing a field a
    condition reads yields ``table -> cond`` (blue dashed in the paper), and
    the condition points at the tables it guards (black arrows).
    """
    cg = ControlGraph(program)
    graph = build_dependency_graph(program, control_graph=cg)
    edges: List[FigureEdge] = []
    seen: Set[Tuple[str, str, str]] = set()

    def emit(src: str, dst: str, kind: str) -> None:
        key = (src, dst, kind)
        if key not in seen:
            seen.add(key)
            edges.append(FigureEdge(src=src, dst=dst, kind=kind))

    # Condition nodes: guards that read table-written fields.
    for (table, _ids), guards in cg.sites.items():
        for cond in guards:
            if fields_read(cond):  # validity guards are not data dependencies
                emit(str(cond), table, "control")

    for dep in graph.edges():
        has_cond_route = False
        if dep.kind is DependencyKind.MATCH:
            # If the match dependency flows through a guarding condition,
            # draw src -> cond instead of src -> dst (Fig. 1 shows
            # Sketch_Min -> condition -> DNS_Drop).
            for (table, _ids), guards in cg.sites.items():
                if table != dep.dst:
                    continue
                for cond in guards:
                    fields = {f.path for f in fields_read(cond)}
                    if any(fields & cause.fields for cause in dep.causes):
                        emit(dep.src, str(cond), "match")
                        has_cond_route = True
            if not has_cond_route:
                emit(dep.src, dep.dst, "match")
        elif dep.kind is DependencyKind.ACTION:
            emit(dep.src, dep.dst, "action")
        elif dep.kind is DependencyKind.REVERSE:
            emit(dep.src, dep.dst, "reverse")
        else:
            emit(dep.src, dep.dst, "control")
    return edges
