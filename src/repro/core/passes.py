"""The pass framework: Fig. 2's loop as first-class passes.

The paper's optimization loop — profile, remove dependencies, reduce
memory, offload — was a hard-coded ``if/elif`` chain in ``P2GO.run()``
with one accept/observe/recompile block copied per phase.  Here each
phase is an :class:`OptimizationPass`: a named object that inspects the
shared :class:`~repro.core.session.OptimizationContext`, may *propose* a
single candidate change to it, and returns one typed
:class:`~repro.core.observations.Decision` per candidate it considered.
The :class:`PassManager` owns the loop that used to be triplicated:

1. run the pass (it proposes at most one change per round, with exactly
   one accepted decision);
2. route that decision through the review hook (:func:`review`);
3. assign the proposed program/config to the session when the review
   lets it through; on a veto the decision is kept as ``VETOED`` and the
   session is simply never touched (§2.2's "selectively accept or
   reject");
4. repeat up to the pass's ``max_rounds``, then record the phase's
   :class:`PhaseOutcome` — stage count, stage map, and the profiling
   perf the phase's own replays cost (memo hits cost nothing and show up
   as ``None``).

Phase ordering stays a plain sequence of passes, so the paper's default
(2, 3, 4) and the ablation reorderings are just different lists.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import (
    Callable,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

from repro.core.observations import Decision, Phase, Verdict
from repro.core.profiler import PerfCounters
from repro.core.session import OptimizationContext
from repro.p4.program import Program
from repro.sim.runtime import RuntimeConfig

#: Review hook: receives each accepted decision, returns True to keep
#: it.  The default keeps everything (batch mode).
ReviewHook = Callable[[Decision], bool]


@dataclass
class PhaseOutcome:
    """Stage count after a phase (Table 2's rows), plus what the phase's
    own profiling replays cost."""

    phase: Phase
    stages: int
    stage_map: List[List[str]]
    #: What the trace replays this phase executed cost, read off their
    #: profiles (parallel batches included).  None
    #: when the phase ran no new replay — every profile it asked for was
    #: a memo or disk hit.  Replays logged before the phase began
    #: (pipeline setup, online monitoring) are never attributed here.
    profiling_perf: Optional[PerfCounters] = None


@dataclass(frozen=True)
class PassResult:
    """What one round of a pass decided.

    A round that changes anything returns the rewritten ``program``
    and/or ``config`` — never the session's own — and exactly one
    accepted decision among its ``decisions``; a round that changes
    nothing returns none.  The manager assigns the change once the
    review let that decision through.
    """

    decisions: Tuple[Decision, ...] = ()
    program: Optional[Program] = None
    config: Optional[RuntimeConfig] = None

    def __post_init__(self) -> None:
        accepted = sum(
            d.verdict is Verdict.ACCEPTED for d in self.decisions
        )
        if accepted != int(self.changed):
            raise ValueError(
                f"a pass result that {'changes' if self.changed else 'keeps'}"
                f" the program needs {int(self.changed)} accepted "
                f"decision(s), not {accepted}"
            )

    @property
    def changed(self) -> bool:
        return self.program is not None or self.config is not None

    @property
    def accepted(self) -> Optional[Decision]:
        """The one accepted decision, when the round changed something."""
        return next(
            (d for d in self.decisions if d.verdict is Verdict.ACCEPTED),
            None,
        )


def review(
    step: PassResult, review_hook: Optional[ReviewHook]
) -> Tuple[Tuple[Decision, ...], bool]:
    """``step``'s decisions after the programmer's review, and whether
    its change stands.  A vetoed decision is kept as ``VETOED``."""
    accepted = step.accepted
    if accepted is None or review_hook is None or review_hook(accepted):
        return step.decisions, accepted is not None
    vetoed = replace(accepted, verdict=Verdict.VETOED)
    return tuple(vetoed if d is accepted else d for d in step.decisions), False


@runtime_checkable
class OptimizationPass(Protocol):
    """One of Fig. 2's optimization phases, behind a uniform interface."""

    #: Stable identifier (CLI/report labels).
    name: str
    #: The paper phase this pass implements.
    phase: Phase
    #: Upper bound on rounds the manager runs this pass per occurrence.
    max_rounds: int

    def run(self, ctx: OptimizationContext) -> PassResult:
        """Inspect ``ctx``, propose at most one change, report it."""
        ...


class PassManager:
    """Runs a sequence of passes over one optimization session.

    Passes may evaluate independent candidates through the session's
    batch probe (``probe_many``); the manager's own accept loop stays
    strictly serial.
    """

    def __init__(
        self,
        ctx: OptimizationContext,
        review_hook: Optional[ReviewHook] = None,
    ):
        self.ctx = ctx
        self.review_hook = review_hook
        #: Every decision of every round, in order.
        self.decisions: List[Decision] = []

    def run_pass(self, pass_: OptimizationPass) -> PhaseOutcome:
        """Run one pass to quiescence (its ``max_rounds`` bound) and
        record its outcome."""
        start = len(self.ctx.probes)
        for _round in range(max(1, pass_.max_rounds)):
            step = pass_.run(self.ctx)
            decisions, applied = review(step, self.review_hook)
            self.decisions.extend(decisions)
            if not applied:
                break
            if step.program is not None:
                self.ctx.program = step.program
            if step.config is not None:
                self.ctx.config = step.config
        result = self.ctx.compile()
        return PhaseOutcome(
            phase=pass_.phase,
            stages=result.stages_used,
            stage_map=result.stage_map(),
            profiling_perf=self.ctx.replay_perf(start),
        )

    def run(self, passes: Sequence[OptimizationPass]) -> List[PhaseOutcome]:
        """The Fig. 2 loop: run every pass in order."""
        return [self.run_pass(pass_) for pass_ in passes]
