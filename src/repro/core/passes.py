"""The pass framework: Fig. 2's loop as first-class passes.

The paper's optimization loop — profile, remove dependencies, reduce
memory, offload — was a hard-coded ``if/elif`` chain in ``P2GO.run()``
with one accept/observe/recompile block copied per phase.  Here each
phase is an :class:`OptimizationPass`: a named object that inspects the
shared :class:`~repro.core.session.OptimizationContext`, may *propose* a
single candidate change to it, and reports what it saw as observations.
The :class:`PassManager` owns the loop that used to be triplicated:

1. run the pass (it proposes at most one change per round);
2. log its observations, routing ``OPTIMIZATION`` ones through the
   review hook;
3. assign the proposed program/config to the session when accepted;
   when the programmer vetoes it the session is simply never touched
   (§2.2's "selectively accept or reject");
4. repeat up to the pass's ``max_rounds``, then record the phase's
   :class:`PhaseOutcome` — stage count, stage map, and the profiling
   perf the phase's own replays cost (memo hits cost nothing and show up
   as ``None``).

Phase ordering stays a plain sequence of passes, so the paper's default
(2, 3, 4) and the ablation reorderings are just different lists.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import (
    TYPE_CHECKING,
    Callable,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

from repro.core.observations import (
    Observation,
    ObservationKind,
    ObservationLog,
    Phase,
)
from repro.core.session import OptimizationContext
from repro.p4.program import Program
from repro.sim.perf import PerfCounters
from repro.sim.runtime import RuntimeConfig

if TYPE_CHECKING:
    from repro.core.phase_offload import Offload

#: Review hook: receives each optimization observation, returns True to
#: accept.  The default accepts everything (batch mode).
ReviewHook = Callable[[Observation], bool]


@dataclass
class PhaseOutcome:
    """Stage count after a phase (Table 2's rows), plus what the phase's
    own profiling replays cost."""

    phase: Phase
    stages: int
    stage_map: List[List[str]]
    #: Merged perf counters of the trace replays this phase triggered,
    #: merged in submission order (parallel batches included).  None
    #: when the phase ran no new replay — every profile it asked for was
    #: a session memo hit.  Replays outside the phase's perf window
    #: (pipeline setup, online monitoring) are never attributed here.
    profiling_perf: Optional[PerfCounters] = None


@dataclass
class PassResult:
    """What one round of a pass did.

    A pass that found an optimization returns the rewritten
    ``program`` and/or ``config``; it never touches the session's own.
    The manager assigns them once the review accepted the change, and
    keeps ``offloaded`` — phase 4's record of the segments the rewrite
    moves to the controller — with them.
    """

    observations: List[Observation] = dc_field(default_factory=list)
    offloaded: Tuple["Offload", ...] = ()
    program: Optional[Program] = None
    config: Optional[RuntimeConfig] = None

    @property
    def changed(self) -> bool:
        return self.program is not None or self.config is not None


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
    batch probes (``compile_many`` / ``profile_many`` / ``probe_many``);
    the manager's own accept loop stays strictly serial.
    """

    def __init__(
        self,
        ctx: OptimizationContext,
        review_hook: Optional[ReviewHook] = None,
        log: Optional[ObservationLog] = None,
    ):
        self.ctx = ctx
        self.review_hook = review_hook
        self.log = log if log is not None else ObservationLog()
        #: The offload records of every accepted round, in order.
        self.offloaded: List["Offload"] = []

    # ------------------------------------------------------------------
    def _accepted(self, obs: Observation) -> bool:
        """Log one observation; route optimizations through the review
        hook, recording a rejection observation on veto."""
        self.log.add(obs)
        if (
            obs.kind is ObservationKind.OPTIMIZATION
            and self.review_hook is not None
        ):
            accepted = self.review_hook(obs)
            if not accepted:
                self.log.add(
                    Observation(
                        phase=obs.phase,
                        kind=ObservationKind.REJECTED,
                        title=f"programmer rejected: {obs.title}",
                        details="change rolled back at review",
                    )
                )
            return accepted
        return True

    def run_pass(self, pass_: OptimizationPass) -> PhaseOutcome:
        """Run one pass to quiescence (its ``max_rounds`` bound) and
        record its outcome."""
        self.ctx.start_perf_window()
        for _round in range(max(1, pass_.max_rounds)):
            step = pass_.run(self.ctx)
            applied = False
            for obs in step.observations:
                if obs.kind is ObservationKind.OPTIMIZATION:
                    if self._accepted(obs):
                        applied = True
                else:
                    self.log.add(obs)
            if not (step.changed and applied):
                break
            if step.program is not None:
                self.ctx.program = step.program
            if step.config is not None:
                self.ctx.config = step.config
            self.offloaded.extend(step.offloaded)
        result = self.ctx.compile()
        return PhaseOutcome(
            phase=pass_.phase,
            stages=result.stages_used,
            stage_map=result.stage_map(),
            profiling_perf=self.ctx.take_perf_window(),
        )

    def run(self, passes: Sequence[OptimizationPass]) -> List[PhaseOutcome]:
        """The Fig. 2 loop: run every pass in order."""
        return [self.run_pass(pass_) for pass_ in passes]
