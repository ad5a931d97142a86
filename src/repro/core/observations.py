"""Decisions: what P2GO did with each candidate, and why.

P2GO "returns the adaptations it made to the original program together
with the profile-based observations that guided each individual change"
(§1).  The programmer reviews these and accepts or rejects each change —
so every round of phases 2–4 returns one typed :class:`Decision` per
candidate it enumerated (up to and including the one it accepted), each
rejection naming a :class:`Reason` from one closed set, the pipeline
routes each accepted one through a review hook, and
:func:`repro.core.report.render_decision` is the one place a decision
becomes text.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple, Union

if TYPE_CHECKING:  # pragma: no cover - the phases import this module
    from repro.analysis.dependencies import Dependency
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
    #: The change was applied, and a fresh trace breaks the profile fact
    #: that licensed it (:func:`repro.core.drift.recheck`).
    VIOLATED = "violated"


class Reason(enum.Enum):
    """Why a phase turned a candidate down, or why a fresh trace breaks
    an applied one — the closed set."""

    # Phase 2: the profile shows the dependency ...
    #: ... a conflicting action pair co-applied on some packet.
    MANIFESTS = "manifests"
    #: ... some packet hit the source while the consumer was applied.
    HIT_COAPPLIED = "hit_coapplied"
    # Phase 2: the apply-on-miss rewrite refuses (remove_dependency).
    TABLES_NOT_FOUND = "tables_not_found"
    NOT_SIBLINGS = "not_siblings"
    NOT_RELOCATABLE = "not_relocatable"
    NOT_ADJACENT = "not_adjacent"
    GUARDS_NOT_VALIDITY = "guards_not_validity"
    GUARD_NOT_IMPLIED = "guard_not_implied"
    # Phases 3 and 4.
    #: The change saves fewer stages than the phase asks for.
    NO_STAGE_SAVED = "no_stage_saved"
    #: Phase 3: the resized program's re-profile differs.
    BEHAVIOUR_CHANGED = "behaviour_changed"
    #: Phase 3: only a size below what the runtime config installs
    #: saves a stage; or the config installs more than an applied
    #: resize holds.
    ENTRIES_DO_NOT_FIT = "entries_do_not_fit"
    #: Phase 4: the segment redirects more than the controller budget.
    OVER_BUDGET = "over_budget"
    #: Phase 4: another qualifying segment redirects less traffic.
    OUTRANKED = "outranked"


#: What a decision is about: a dependency on the TDG's longest path
#: (phase 2), a resize (phase 3), or the segment moved to the
#: controller (phase 4).
Candidate = Union["Dependency", "MemoryReduction", "Offload"]


@dataclass(frozen=True)
class Decision:
    """One reviewable fact: what a phase considered, what it decided,
    and the numbers that decided it.  It holds no program, so a run's
    decisions pickle small and compare with ``==``."""

    phase: Phase
    verdict: Verdict
    candidate: Optional[Candidate] = None
    #: Why the candidate was turned down, or why its licence no longer
    #: holds (None when neither).
    reason: Optional[Reason] = None
    #: Stages before and after the change, when the phase compiled it.
    stages_before: Optional[int] = None
    stages_after: Optional[int] = None
    #: What the profile showed: ``behavior_diff``'s lines for a resize
    #: rejected or violated as :attr:`Reason.BEHAVIOUR_CHANGED`, the
    #: measured redirect rate of an offload violated as
    #: :attr:`Reason.OVER_BUDGET`.
    evidence: Tuple[str, ...] = ()
