"""Decisions: what P2GO did with each candidate, and why.

P2GO "returns the adaptations it made to the original program together
with the profile-based observations that guided each individual change"
(§1).  The programmer reviews these and accepts or rejects each change —
so every phase returns typed :class:`Decision` records, the pipeline
routes each accepted one through a review hook, and
:func:`repro.core.report.render_decision` is the one place a decision
becomes text.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple, Union

if TYPE_CHECKING:  # pragma: no cover - the phases import this module
    from repro.core.phase_dependencies import RemovableDependency
    from repro.core.phase_memory import MemoryReduction
    from repro.core.phase_offload import Offload


class Phase(enum.Enum):
    PROFILING = 1
    REMOVE_DEPENDENCIES = 2
    REDUCE_MEMORY = 3
    OFFLOAD_CODE = 4


class Verdict(enum.Enum):
    #: The change was applied.
    ACCEPTED = "accepted"
    #: The phase considered the candidate and turned it down.
    REJECTED = "rejected"
    #: The phase accepted the change; the programmer's review did not.
    VETOED = "vetoed"
    #: The phase found no candidate to decide on.
    NONE = "none"


#: What a decision is about: a removable dependency (phase 2), a resize
#: (phase 3), the segments moved to the controller (phase 4), or None
#: when the phase found no candidate.
Candidate = Union[
    "RemovableDependency", "MemoryReduction", Tuple["Offload", ...], None
]


@dataclass(frozen=True)
class Decision:
    """One reviewable fact: what a phase considered, what it decided,
    and the numbers that decided it.  It holds no program, so a run's
    decisions pickle small and compare with ``==``."""

    phase: Phase
    verdict: Verdict
    candidate: Candidate = None
    #: Why a candidate was turned down: the rewrite's refusal (phase 2)
    #: or how the behaviour changed on the trace (phase 3).
    reason: str = ""
    #: Stages before and after the change, when the phase compiled it.
    stages_before: Optional[int] = None
    stages_after: Optional[int] = None
    #: Phase 4's bar: the segments it evaluated, the stages one must
    #: save and the controller-load ceiling it must fit.
    evaluated: int = 0
    min_stage_savings: int = 0
    max_redirect_fraction: float = 0.0
