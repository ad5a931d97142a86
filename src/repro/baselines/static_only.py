"""Baseline: the static compiler with no profile guidance.

This is what every P4 toolchain does today — compile the program exactly
as written, conservatively honouring every statically-derived dependency.
P2GO's gains in the benches are measured against this baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.p4.program import Program
from repro.target.compiler import compile_program
from repro.target.model import DEFAULT_TARGET, TargetModel


@dataclass
class StaticResult:
    """What a profile-blind toolchain delivers."""

    program: Program
    stages: int
    fits: bool
    stage_map: List[List[str]]


def compile_static(
    program: Program, target: TargetModel = DEFAULT_TARGET
) -> StaticResult:
    """Compile with no profile guidance."""
    result = compile_program(program, target)
    return StaticResult(
        program=program,
        stages=result.stages_used,
        fits=result.fits,
        stage_map=result.stage_map(),
    )
