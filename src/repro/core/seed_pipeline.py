"""The seed orchestrator, frozen as a reference implementation.

This is the pre-pass-framework ``P2GO.run()`` — the hard-coded
``if/elif`` chain with one accept/observe/recompile block per phase,
including its redundant invocations (the back-to-back duplicate compile
after phase 3's round loop, the re-profiles of programs a phase just
profiled).  Its probes and accept logic are kept verbatim; each phase's
decisions go through the same :func:`~repro.core.passes.review` as the
pass manager's.  Two consumers:

* ``tests/test_passes.py`` pins that the pass-framework orchestrator
  produces an equivalent :class:`~repro.core.pipeline.P2GOResult` —
  the same decisions included — for the paper's default phase order
  and the ablation reorderings;
* the fuzzer's ``order`` axis (:mod:`repro.fuzz.differential`) holds
  random programs to the same equivalence.

Every compile/profile goes through an ordinary
:class:`~repro.core.session.OptimizationContext`: memo hits change no
decision, and the counters' ``*_calls`` record the seed's true
invocation counts.  It calls phase 2's ``run_phase``, not its pass, so
it replays every accepted relocation on purpose: the ``order`` axis
then compares the pass's adopted profile against a real replay.  Do
not extend this module; new behaviour belongs in the pass framework.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core import phase_dependencies, phase_memory, phase_offload
from repro.core.observations import Decision, Phase
from repro.core.passes import PhaseOutcome, ReviewHook, review
from repro.core.pipeline import P2GOResult
from repro.core.session import OptimizationContext
from repro.p4.program import Program
from repro.sim.runtime import RuntimeConfig
from repro.target.model import DEFAULT_TARGET, TargetModel
from repro.traffic.generators import TracePacket


def run_seed(
    program: Program,
    config: RuntimeConfig,
    trace: Sequence[TracePacket],
    target: TargetModel = DEFAULT_TARGET,
    phases: Sequence[int] = (2, 3, 4),
    max_dependency_removals: int = 8,
    max_memory_reductions: int = 1,
    max_redirect_fraction: float = phase_offload.DEFAULT_MAX_REDIRECT,
    review_hook: Optional[ReviewHook] = None,
) -> P2GOResult:
    """The seed ``P2GO.run()``, verbatim (see module docstring)."""
    config.validate(program)
    trace = list(trace)
    session = OptimizationContext(program, config, trace, target)

    decisions: List[Decision] = []
    outcomes: List[PhaseOutcome] = []

    # Phase 1: profiling.
    initial_profile, profiling_perf = session.profile_with_perf(
        program, config
    )
    current = program
    profile = initial_profile
    result = session.compile(current)
    outcomes.append(
        PhaseOutcome(
            phase=Phase.PROFILING,
            stages=result.stages_used,
            stage_map=result.stage_map(),
        )
    )

    for phase_number in phases:
        if phase_number == 2:
            for _round in range(max_dependency_removals):
                step = phase_dependencies.run_phase(
                    current, result, profile
                )
                logged, applied = review(step, review_hook)
                decisions.extend(logged)
                if not applied:
                    break
                current = step.program
                result = session.compile(current)
                profile = session.profile(current, config)
            outcomes.append(
                PhaseOutcome(
                    phase=Phase.REMOVE_DEPENDENCIES,
                    stages=result.stages_used,
                    stage_map=result.stage_map(),
                )
            )
        elif phase_number == 3:
            for _round in range(max_memory_reductions):
                step = phase_memory.run_phase(
                    session, current, config, profile
                )
                logged, applied = review(step, review_hook)
                decisions.extend(logged)
                if not applied:
                    break
                current = step.program
                result = session.compile(current)
                profile = session.profile(current, config)
            # The seed's duplicate compile (ISSUE 3, satellite 1): the
            # round loop already compiled `current` — kept verbatim here.
            result = session.compile(current)
            outcomes.append(
                PhaseOutcome(
                    phase=Phase.REDUCE_MEMORY,
                    stages=result.stages_used,
                    stage_map=result.stage_map(),
                )
            )
        elif phase_number == 4:
            step = phase_offload.run_phase(
                session,
                current,
                config,
                max_redirect_fraction=max_redirect_fraction,
            )
            logged, applied = review(step, review_hook)
            decisions.extend(logged)
            if applied:
                current = step.program
                config = step.config
                result = session.compile(current)
                profile = session.profile(current, config)
            else:
                result = session.compile(current)
            outcomes.append(
                PhaseOutcome(
                    phase=Phase.OFFLOAD_CODE,
                    stages=result.stages_used,
                    stage_map=result.stage_map(),
                )
            )
        else:
            raise ValueError(
                f"unknown optimization phase {phase_number!r}; "
                "valid phases are 2, 3, 4"
            )

    return P2GOResult(
        original_program=program,
        optimized_program=current,
        final_config=config,
        decisions=tuple(decisions),
        initial_profile=initial_profile,
        outcomes=outcomes,
        profiling_perf=profiling_perf,
        session_counters=session.counters,
    )
