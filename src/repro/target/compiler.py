"""The compiler facade: program + target → stage mapping.

This is the stand-in for the vendor P4 compiler P2GO drives: it
analyses the program (control graph and the table
dependency graphs of both pipelines — or takes the analysis of an
equal-structure program from the caller), runs stage allocation, and
packages everything the optimization phases query — stage count, stage
map, per-stage usage, and the TDG whose critical path phase 2 attacks.
It does not validate: a :class:`~repro.p4.program.Program` is checked
when it is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.analysis.dependencies import DependencyGraph
from repro.analysis.structure import ProgramAnalysis, analyse
from repro.p4.program import Program
from repro.target.allocation import Allocation, allocate
from repro.target.model import DEFAULT_TARGET, TargetModel


@dataclass
class CompileResult:
    """Everything one compile of a program against a target produced.

    It does not hold the program: the caller already has it (it is the
    probe's key), and a stored compile entry would otherwise pickle the
    whole program beside its allocation."""

    target: TargetModel
    allocation: Allocation
    #: Ingress TDG, merged with the egress TDG when the program has an
    #: egress pipeline (the two share no tables, so merging is safe).
    dependency_graph: DependencyGraph
    egress_dependency_graph: Optional[DependencyGraph] = None

    @property
    def stages_used(self) -> int:
        return self.allocation.stages_used

    @property
    def fits(self) -> bool:
        return self.stages_used <= self.target.num_stages

    def stage_map(self) -> List[List[str]]:
        return self.allocation.stage_map()

    def summary(self) -> str:
        """Stage count and, per stage, its tables and SRAM/TCAM use."""
        lines = [
            f"stages used: {self.stages_used} / {self.target.num_stages} "
            f"(fits: {'yes' if self.fits else 'NO'})",
        ]
        for stage, tables in enumerate(self.stage_map()):
            sram = self.allocation.sram_used_by_stage[stage]
            tcam = self.allocation.tcam_used_by_stage[stage]
            lines.append(
                f"  stage {stage:2d}: "
                f"[sram {sram:3d}/{self.target.sram_blocks_per_stage} "
                f"tcam {tcam:3d}/{self.target.tcam_blocks_per_stage}] "
                + ", ".join(tables)
            )
        return "\n".join(lines)


def compile_program(
    program: Program,
    target: TargetModel = DEFAULT_TARGET,
    analysis: Optional[ProgramAnalysis] = None,
) -> CompileResult:
    """Compile ``program`` for ``target``.

    ``analysis`` is the :func:`~repro.analysis.structure.analyse` result
    of a program with the same
    :func:`~repro.analysis.structure.structure_key` (the session hands
    one in so size-only candidates are not re-analysed); allocation runs
    on every call regardless.

    Raises :class:`~repro.exceptions.CompilationError` for resource
    models the program can never satisfy (shared registers, arrays larger
    than a stage), and returns a result with ``fits = False`` — not an
    exception — when the program merely needs more stages than the target
    has.
    """
    if analysis is None:
        analysis = analyse(program)
    return CompileResult(
        target=target,
        allocation=allocate(program, analysis, target),
        dependency_graph=analysis.merged(),
        egress_dependency_graph=analysis.egress,
    )
