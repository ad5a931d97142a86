"""The five differential oracle axes.

Each axis runs a generated case two different ways through machinery
that *must not* change observable behaviour, and reports the first
disagreement:

``behavior``
    The phases-(2, 3) run, then the full (2, 3, 4) run, each judged
    against the original program by
    :func:`repro.controller.equivalence.check_result` (the paper's
    behaviour-preservation contract): packet-for-packet when nothing
    was offloaded, switch + controller held to the original when phase
    4 moved a segment out.  The (2, 3, 4) run's decisions are tallied
    per phase (:func:`tally_decisions`), and each applied one's licence
    must hold on the trace it was derived from
    (:func:`repro.core.drift.recheck` returns nothing).
``engine``
    The engine (compiled match structures + execution plan) vs the
    reference interpreter, and the step-log profile
    (:class:`~repro.core.profiler.Profiler`) vs the §3.1 instrumented
    replay (:func:`~repro.core.instrument.reference_profile`) on every
    aggregate it reads off the profiling bits, view by view, on both the
    original and the optimized program.
``workers``
    ``workers=1`` vs ``workers=4`` pipeline runs must produce
    byte-identical results (program, config, counters, decisions).
``store``
    A store-backed run (cold, then warm-started from its own probes)
    must decide exactly what the memory-only run decides.
``order``
    The pass-framework pipeline vs the seed orchestrator kept verbatim
    in :mod:`repro.core.seed_pipeline`, for the paper's (2, 3, 4) order.

A crash anywhere is reported as a failure on the axis that raised it —
crashes are findings too, and the shrinker minimizes them the same way.
"""

from __future__ import annotations

import traceback
from collections import Counter
from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Sequence, Tuple

from repro.controller.equivalence import check_result, compare_behavior
from repro.core.drift import recheck
from repro.core.instrument import reference_profile
from repro.core.observations import Verdict
from repro.core.pipeline import P2GO, P2GOResult
from repro.core.profiler import Profiler
from repro.core.seed_pipeline import run_seed
from repro.core.session import config_fingerprint, program_fingerprint
from repro.fuzz.generator import GeneratedCase
from repro.p4.program import Program

#: All oracle axes, in the order they run.
ALL_AXES = ("behavior", "engine", "workers", "store", "order")

#: Optional hook that corrupts the optimized program before the
#: behaviour comparison — the mutation-testing entry point used to prove
#: the harness actually catches broken passes.
Mutator = Callable[[Program], Program]


@dataclass
class AxisFailure:
    """One oracle disagreement (or crash) on one axis."""

    axis: str
    detail: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.axis}] {self.detail}"


def canonical(result: P2GOResult, decisions_only: bool = False) -> tuple:
    """Everything a run decides, as one value two runs compare with
    ``==`` (its decision log holds sets, so it is compared, not printed).

    With ``decisions_only`` the session counters and per-phase perf are
    excluded: store-backed runs legitimately skip executions (different
    counters) while still having to make identical *decisions* — the
    decision log included.
    """
    decisions = (
        program_fingerprint(result.optimized_program),
        config_fingerprint(result.final_config),
        result.offloaded_tables,
        result.stage_history(),
        [o.stage_map for o in result.outcomes],
        result.decisions,
    )
    if decisions_only:
        return decisions
    perfs = [
        (outcome.phase.name, outcome.stages, outcome.profiling_perf)
        for outcome in result.outcomes
    ]
    return decisions, result.session_counters.as_dict(), perfs


def _run_pipeline(
    case: GeneratedCase,
    phases: Tuple[int, ...] = (2, 3, 4),
    workers: int = 1,
    store=False,
) -> P2GOResult:
    return P2GO(
        case.program,
        case.config.clone(),
        case.trace,
        case.target,
        phases=phases,
        workers=workers,
        store=store,
    ).run()


def tally_decisions(result: P2GOResult, tally: Counter[str]) -> None:
    """Count what each of phases 2–4 did in one run: accepted a rewrite,
    only rejected candidates (also counted once per reason), or
    enumerated nothing.  Keys read ``phase N accepted``, ``phase N
    rejected``, ``phase N rejected <reason>`` and ``phase N nothing
    enumerated``."""
    for phase in (2, 3, 4):
        logged = [d for d in result.decisions if d.phase.value == phase]
        if any(d.verdict is Verdict.ACCEPTED for d in logged):
            tally[f"phase {phase} accepted"] += 1
        elif logged:
            tally[f"phase {phase} rejected"] += 1
            for reason in {d.reason.value for d in logged}:
                tally[f"phase {phase} rejected {reason}"] += 1
        else:
            tally[f"phase {phase} nothing enumerated"] += 1


# ----------------------------------------------------------------------
# Axis implementations.  Each returns None (agreement) or an AxisFailure.


def _check_behavior(
    case: GeneratedCase,
    mutator: Optional[Mutator],
    exercised: Counter[str],
) -> Optional[AxisFailure]:
    for phases in ((2, 3), (2, 3, 4)):
        result = _run_pipeline(case, phases=phases)
        if mutator is not None:
            result = replace(
                result, optimized_program=mutator(result.optimized_program)
            )
        exercised["offload_checked"] += bool(result.offloaded)
        if phases == (2, 3, 4):
            tally_decisions(result, exercised)
        report = check_result(result, case.config.clone(), case.trace)
        if not report.equivalent:
            return AxisFailure(
                "behavior",
                f"phases {phases} output (offloading "
                f"{', '.join(result.offloaded_tables) or 'nothing'}) "
                f"disagrees on {len(report.mismatches)}/{report.total} "
                f"packets (first at index {report.mismatches[0]})",
            )
        if phases == (2, 3, 4):
            violated = recheck(result, case.config.clone(), case.trace)
            if violated:
                return AxisFailure(
                    "behavior",
                    f"phases {phases}: {len(violated)} applied rewrite(s) "
                    "break their licence on the trace they were derived "
                    "from ("
                    + ", ".join(
                        f"phase {d.phase.value} {d.reason.value}"
                        for d in violated
                    )
                    + ")",
                )
    return None


def _check_engine(case: GeneratedCase) -> Optional[AxisFailure]:
    result = _run_pipeline(case, phases=(2, 3))
    for label, program, config in (
        ("original", case.program, case.config),
        ("optimized", result.optimized_program, result.final_config),
    ):
        engine, reference = config.clone(), config.clone()
        engine.enable_compiled_tables = True
        reference.enable_compiled_tables = False
        report = compare_behavior(
            program, engine, program, reference, case.trace
        )
        if not report.equivalent:
            return AxisFailure(
                "engine",
                f"engine and reference interpreter disagree on the "
                f"{label} program: {len(report.mismatches)}/"
                f"{report.total} packets (first at index "
                f"{report.mismatches[0]})",
            )
        folded = Profiler(program, config.clone()).run(case.trace)
        reference = reference_profile(program, config.clone(), case.trace)
        differing = [
            name for name, value in reference.items()
            if getattr(folded, name) != value
        ]
        if differing:
            return AxisFailure(
                "engine",
                f"the step-log profile of the {label} program differs "
                f"from the instrumented reference in "
                f"{', '.join(differing)}",
            )
    return None


def _check_workers(case: GeneratedCase) -> Optional[AxisFailure]:
    serial = _run_pipeline(case, workers=1)
    parallel = _run_pipeline(case, workers=4)
    if canonical(serial) != canonical(parallel):
        return AxisFailure(
            "workers",
            "workers=1 and workers=4 runs are not byte-identical",
        )
    return None


def _check_store(
    case: GeneratedCase, store_root: Optional[str]
) -> Optional[AxisFailure]:
    import tempfile

    memory_only = _run_pipeline(case, store=False)
    with tempfile.TemporaryDirectory(dir=store_root) as root:
        cold = _run_pipeline(case, store=root)
        warm = _run_pipeline(case, store=root)
    for label, other in (("cold", cold), ("warm-started", warm)):
        if canonical(memory_only, decisions_only=True) != canonical(
            other, decisions_only=True
        ):
            return AxisFailure(
                "store",
                f"store-off and {label} store-on runs decided "
                "differently",
            )
    return None


def _check_order(case: GeneratedCase) -> Optional[AxisFailure]:
    new = _run_pipeline(case)
    seed_result = run_seed(
        case.program,
        case.config.clone(),
        case.trace,
        case.target,
        phases=(2, 3, 4),
    )
    if canonical(new, decisions_only=True) != canonical(
        seed_result, decisions_only=True
    ):
        return AxisFailure(
            "order",
            "pass-framework (2,3,4) run and the seed orchestrator "
            "decided differently",
        )
    return None


def unknown_axes(axes: Sequence[str]) -> Optional[str]:
    """One line naming the entries of ``axes`` that are not oracle axes
    (a typo, or an axis retired since a repro file was written), or
    None when every name is known."""
    unknown = set(axes) - set(ALL_AXES)
    if not unknown:
        return None
    return f"unknown axes {sorted(unknown)}; known: {', '.join(ALL_AXES)}"


def run_axes(
    case: GeneratedCase,
    axes: Sequence[str] = ALL_AXES,
    mutator: Optional[Mutator] = None,
    store_root: Optional[str] = None,
    stop_on_first: bool = True,
    exercised: Optional[Counter[str]] = None,
) -> List[AxisFailure]:
    """Run the requested oracle axes on one case.

    Returns the failures found (empty list = full agreement).  Unknown
    axis names raise ``ValueError`` up front.  ``exercised`` tallies,
    as ``offload_checked``, the offloading cases the behavior axis held
    to the original with the controller in the loop, and what each
    phase of its (2, 3, 4) run decided (:func:`tally_decisions`).
    """
    complaint = unknown_axes(axes)
    if complaint:
        raise ValueError(complaint)
    failures: List[AxisFailure] = []
    for axis in ALL_AXES:
        if axis not in axes:
            continue
        try:
            if axis == "behavior":
                failure = _check_behavior(
                    case,
                    mutator,
                    Counter() if exercised is None else exercised,
                )
            elif axis == "engine":
                failure = _check_engine(case)
            elif axis == "workers":
                failure = _check_workers(case)
            elif axis == "store":
                failure = _check_store(case, store_root)
            else:
                failure = _check_order(case)
        except Exception:
            failure = AxisFailure(
                axis, "crash:\n" + traceback.format_exc(limit=8)
            )
        if failure is not None:
            failures.append(failure)
            if stop_on_first:
                break
    return failures
