"""Offline re-check of a run's rewrites on fresh traffic (§6).

P2GO's optimizations hold "for as long as the computed profile remains
representative".  Every rewrite a run applied is an accepted
:class:`~repro.core.observations.Decision`, licensed by a fact of the
profile it was derived from; :func:`recheck` profiles the original
program on a *fresh* trace and re-runs each licence with the predicate
its phase used.  The decisions whose licence breaks are the trigger for
re-running P2GO.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Sequence, Tuple

from repro.core.observations import Decision, Phase, Reason, Verdict
from repro.core.phase_dependencies import _profile_refusal
from repro.core.phase_memory import _resized
from repro.core.phase_offload import DEFAULT_MAX_REDIRECT, _tables
from repro.core.pipeline import P2GOResult
from repro.core.profiler import Profiler
from repro.sim.runtime import RuntimeConfig
from repro.traffic.generators import TracePacket


def recheck(
    result: P2GOResult,
    config: RuntimeConfig,
    trace: Sequence[TracePacket],
    max_redirect_fraction: float = DEFAULT_MAX_REDIRECT,
) -> Tuple[Decision, ...]:
    """The applied decisions of ``result`` whose licence ``trace``
    breaks, each as ``Verdict.VIOLATED`` with the refusal its phase
    would now give (vetoed decisions applied nothing and are skipped).

    Like :func:`repro.controller.equivalence.check_result`, it profiles
    ``result.original_program`` under the original ``config``: the
    original semantics define what each rewrite must preserve.
    """
    original = result.original_program
    fresh = Profiler(original, config).run(trace)
    violated: List[Decision] = []
    for decision in result.applied:
        evidence: Tuple[str, ...] = ()
        if decision.phase is Phase.REMOVE_DEPENDENCIES:
            reason = _profile_refusal(decision.candidate, fresh)
        elif decision.phase is Phase.REDUCE_MEMORY:
            resize = decision.candidate
            resized = _resized(original, resize, resize.new_size)
            evidence = tuple(
                fresh.behavior_diff(Profiler(resized, config).run(trace))
            )
            reason = Reason.BEHAVIOUR_CHANGED if evidence else None
        else:
            rate = fresh.traversal_rate(_tables(decision))
            reason = (
                Reason.OVER_BUDGET if rate > max_redirect_fraction else None
            )
            evidence = (
                f"fresh traffic reaches the segment at {rate:.1%} "
                f"(budget {max_redirect_fraction:.1%})",
            )
        if reason is not None:
            violated.append(
                replace(
                    decision, verdict=Verdict.VIOLATED, reason=reason,
                    evidence=evidence,
                )
            )
    return tuple(violated)
