"""The P2GO orchestrator (Fig. 2).

Runs the four phases in order: profile, remove dependencies, reduce
memory, offload code.  Every candidate a phase decides on is recorded as
a typed :class:`~repro.core.observations.Decision`; an optional review
hook lets the programmer accept or reject each change
(§2.2: "the programmer can then choose to selectively accept or reject
them based on her knowledge of the general traffic").

The loop itself lives in :class:`~repro.core.passes.PassManager`: each
phase is an :class:`~repro.core.passes.OptimizationPass` over a shared
:class:`~repro.core.session.OptimizationContext`, so all candidate
probing — the halving binary search of phase 3, the per-segment redirect
variants of phase 4 and the profile their loads are read off, the
re-profiles after each accepted change — goes
through one content-keyed compile/profile memo cache.  The session's
invocation counters ride along on :class:`P2GOResult` so callers can see
exactly how many compiles and trace replays a run cost (and how many the
cache absorbed).  ``tests/test_passes.py`` pins result equivalence with
the seed ``if/elif`` orchestrator, which is kept verbatim in
:mod:`repro.core.seed_pipeline` as the reference.

One run — its inputs, its knobs and its lifecycle (build the passes,
create or adopt a session, wire its trace/store, run the phases and
close) — is :class:`SwitchRun`.  :class:`P2GO` is the same run with
the single-switch ``session=``/``store=`` conveniences; the fleet
coordinator (:mod:`repro.core.fleet`) and the design-space explorer
(:mod:`repro.explore`) hand many :class:`SwitchRun`\\ s to
:func:`~repro.core.fanout.run_many` against one shared persistent store.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.observations import Decision, Phase, Verdict
from repro.core.passes import (
    OptimizationPass,
    PassManager,
    PhaseOutcome,
    ReviewHook,
)
from repro.core.phase_dependencies import DependencyRemovalPass
from repro.core.phase_memory import (
    MemoryReductionPass,
    resolve_candidate_policy,
)
from repro.core.phase_offload import DEFAULT_MAX_REDIRECT, Offload, OffloadPass
from repro.core.profiler import PerfCounters, Profile
from repro.core.session import OptimizationContext, SessionCounters
from repro.core.store import SessionStore, resolve_store
from repro.p4.program import Program
from repro.sim.runtime import RuntimeConfig
from repro.sim.switch import ReplayTrace
from repro.target.model import DEFAULT_TARGET, TargetModel
from repro.traffic.generators import TracePacket

__all__ = [
    "P2GO",
    "P2GOResult",
    "PhaseOutcome",
    "ReviewHook",
    "SwitchRun",
    "optimize",
]


@dataclass
class P2GOResult:
    """Everything one P2GO run produces."""

    original_program: Program
    optimized_program: Program
    final_config: RuntimeConfig
    #: Every phase's decisions, in the order they were made.
    decisions: Tuple[Decision, ...]
    initial_profile: Profile
    outcomes: List[PhaseOutcome]
    #: What the initial profiling replay costs (packets, per-table
    #: lookups), read off the initial profile — the engine cost every
    #: later phase re-pays on each re-profile (per-phase re-pay shows
    #: up on each outcome's ``profiling_perf``).
    profiling_perf: Optional[PerfCounters] = None
    #: This run's probes, tallied: how many times the phases asked and
    #: what answered — the memo, the store or an execution.  A run on a
    #: shared session counts only its own probes.
    session_counters: Optional[SessionCounters] = None
    #: Settings + counters of the persistent session store's handle,
    #: when one was attached (``store=``/``$P2GO_STORE``); None for
    #: memory-only runs.  :meth:`P2GO.run` adds the store's census.
    #: Metadata only: the optimization outcome is identical with or
    #: without a store (``tests/test_store.py`` pins that).
    store_stats: Optional[dict] = None

    @property
    def applied(self) -> Tuple[Decision, ...]:
        """The accepted decisions: the changes the run applied."""
        return tuple(
            d for d in self.decisions if d.verdict is Verdict.ACCEPTED
        )

    @property
    def offloaded(self) -> Optional[Offload]:
        """The segment phase 4 moved to the controller, if any —
        :func:`repro.controller.equivalence.check_result` judges the run
        by it."""
        return next(
            (
                d.candidate
                for d in self.applied
                if d.phase is Phase.OFFLOAD_CODE
            ),
            None,
        )

    @property
    def offloaded_tables(self) -> Tuple[str, ...]:
        """The tables the controller must now implement."""
        offload = self.offloaded
        return () if offload is None else offload.segment.tables

    @property
    def controller_load(self) -> float:
        """Fraction of the trace the redirect table sends to the controller
        (a Pareto objective of :mod:`repro.explore.frontier`)."""
        offload = self.offloaded
        return 0.0 if offload is None else float(offload.redirect_fraction)

    @property
    def stages_before(self) -> int:
        return self.outcomes[0].stages

    @property
    def stages_after(self) -> int:
        return self.outcomes[-1].stages

    def stage_history(self) -> List[Tuple[str, int]]:
        return [(o.phase.name.lower(), o.stages) for o in self.outcomes]


class SwitchRun:
    """One switch's optimization run: its inputs, its knobs, and its
    lifecycle — the one picklable run unit.

    The inputs are the paper's (Fig. 2): program, runtime config,
    traffic trace, target.  The knobs mirror the ones the paper
    describes: which ``phases`` run (and in which order), the
    controller-load ceiling for offloading, phase 3's
    ``candidate_policy``, and the ``review_hook`` through which a
    programmer can veto changes (round limits and the minimum stage
    savings are the passes' own defaults).  ``name`` labels the switch
    in fleet reports (defaults to the program name).

    The lifecycle is :meth:`execute`: build the requested passes,
    create (or adopt and re-wire) an
    :class:`~repro.core.session.OptimizationContext`, run the phases,
    close what it owns.  A run is also the *spec* of
    itself: it holds nothing but its inputs, so it pickles across a
    process boundary and executes there to the same result — which is
    how :func:`~repro.core.fanout.run_many` fans a fleet's or a
    sweep's runs over a pool (a ``review_hook`` must then be a
    module-level function).
    """

    def __init__(
        self,
        program: Program,
        config: RuntimeConfig,
        trace: Sequence[TracePacket],
        target: TargetModel = DEFAULT_TARGET,
        name: Optional[str] = None,
        phases: Sequence[int] = (2, 3, 4),
        max_redirect_fraction: float = DEFAULT_MAX_REDIRECT,
        review_hook: Optional[ReviewHook] = None,
        candidate_policy: Optional[str] = None,
    ):
        # Fail on an unknown policy name at construction, not inside a
        # pool worker mid-sweep.
        resolve_candidate_policy(candidate_policy)
        config.validate(program)
        self.name = name if name is not None else program.name
        self.program = program
        self.config = config
        # A ReplayTrace given is kept, so runs that share one share its
        # fingerprint: the trace is hashed once, not once per session.
        if not isinstance(trace, ReplayTrace):
            trace = ReplayTrace(trace)
        self.trace = trace
        self.target = target
        self.phases = tuple(phases)
        self.max_redirect_fraction = max_redirect_fraction
        self.review_hook = review_hook
        self.candidate_policy = candidate_policy

    # ------------------------------------------------------------------
    def build_passes(self) -> List[OptimizationPass]:
        """The requested phase order as configured pass instances."""
        passes: List[OptimizationPass] = []
        for phase_number in self.phases:
            if phase_number == 2:
                passes.append(DependencyRemovalPass())
            elif phase_number == 3:
                passes.append(
                    MemoryReductionPass(
                        candidate_order=resolve_candidate_policy(
                            self.candidate_policy
                        ),
                    )
                )
            elif phase_number == 4:
                passes.append(
                    OffloadPass(
                        max_redirect_fraction=self.max_redirect_fraction,
                    )
                )
            else:
                raise ValueError(
                    f"unknown optimization phase {phase_number!r}; "
                    "valid phases are 2, 3, 4"
                )
        return passes

    def create_session(
        self, store: Optional[SessionStore] = None
    ) -> OptimizationContext:
        """A fresh session wired to this run's inputs (and ``store``)."""
        return OptimizationContext(
            self.program,
            self.config,
            self.trace,
            self.target,
            store=store,
        )

    def adopt_session(self, ctx: OptimizationContext) -> None:
        """Re-wire an injected (possibly shared) session to this run.

        The session keeps its memo cache, probe log, store and target; it
        starts this run from our inputs.  The trace assignment re-keys
        its profile lookups (memo and disk): a shared
        session that previously replayed other traffic (e.g. before an
        OnlineProfiler drift alert) must not serve profiles recorded on
        it.  Equal-content traces hash to the same key, so this never
        costs a cached run anything, and the run's trace is hashed once
        however many sessions adopt it.  The target is not re-wired: a
        session compiles for the one target it was built with, so a run
        for another target raises :class:`ValueError`.
        """
        if self.target.fingerprint() != ctx.target.fingerprint():
            raise ValueError(
                f"this run's target {self.target.name!r} is not the "
                "session's (their fingerprints differ); a session compiles "
                "for the one target it was built with"
            )
        ctx.program = self.program
        ctx.config = self.config
        ctx.trace = self.trace

    def execute(
        self,
        session: Optional[OptimizationContext] = None,
        store: Optional[SessionStore] = None,
    ) -> P2GOResult:
        """Run the full lifecycle and return the result.

        With no ``session`` the run creates, drives, and closes its own
        (attaching ``store`` when given).  An injected session is
        adopted instead — it stays open afterwards — and ``store`` is
        ignored in favour of the session's own.  If an
        adopted run raises, the session's (program, config, trace) are
        restored to their pre-adoption state: a failed re-run (e.g. a
        drift-triggered ``reoptimize``) must not leave a shared session
        re-keyed on this run's trace for subsequent callers.
        """
        passes = self.build_passes()
        if session is None:
            ctx = self.create_session(store=store)
            try:
                result = self._run_phases(ctx, passes)
            finally:
                # Drop the trace's parses; the result keeps the counters.
                ctx.close()
        else:
            ctx = session
            with ctx.state_guard():
                self.adopt_session(ctx)
                result = self._run_phases(ctx, passes)
        if ctx.store is not None:
            # No census: a fan-out runs this once per switch or point.
            result.store_stats = ctx.store.handle_stats()
        return result

    def _run_phases(
        self, ctx: OptimizationContext, passes: List[OptimizationPass]
    ) -> P2GOResult:
        # Phase 1: profiling (batched replay through the engine; its
        # cost, read off the profile, rides along on the result).  The
        # run's own probes are the session's from ``start`` on.
        start = len(ctx.probes)
        initial_profile, profiling_perf = ctx.profile_with_perf()
        result = ctx.compile()
        outcomes: List[PhaseOutcome] = [
            PhaseOutcome(
                phase=Phase.PROFILING,
                stages=result.stages_used,
                stage_map=result.stage_map(),
                profiling_perf=ctx.replay_perf(start),
            )
        ]

        # Optimization phases, honouring the requested order.  The paper's
        # default runs offloading last so the data plane is optimized
        # first (§2.2 explains why offloading earlier can waste work);
        # the ablation bench deliberately reorders.
        manager = PassManager(ctx, review_hook=self.review_hook)
        outcomes.extend(manager.run(passes))

        return P2GOResult(
            original_program=self.program,
            optimized_program=ctx.program,
            final_config=ctx.config,
            decisions=tuple(manager.decisions),
            initial_profile=initial_profile,
            outcomes=outcomes,
            profiling_perf=profiling_perf,
            session_counters=SessionCounters.of(ctx.probes[start:]),
        )


class P2GO(SwitchRun):
    """Profile-guided optimizer for P4 programs: a :class:`SwitchRun`
    (every run parameter is documented there) plus the
    ``session``/``store`` resolution library callers expect.

    ``session`` lets several runs on one target (or a run plus online
    monitoring) share one compile/profile cache; by default each run gets
    a fresh :class:`~repro.core.session.OptimizationContext`.

    ``store`` warm-starts the run from a persistent cross-run cache
    (:class:`~repro.core.store.SessionStore`): pass a store instance or
    a directory path; ``None`` (the default) uses ``$P2GO_STORE`` when
    set and no store otherwise; ``False`` disables the store even when
    the environment variable is set.  A second run over an unchanged
    program + config + trace is served entirely from disk — zero
    compiles, zero replays.  When a ``session`` is injected its own
    store (or lack of one) is respected and ``store`` is ignored.
    """

    def __init__(
        self,
        program: Program,
        config: RuntimeConfig,
        trace: Sequence[TracePacket],
        target: TargetModel = DEFAULT_TARGET,
        *,
        session: Optional[OptimizationContext] = None,
        store=None,
        **run_kwargs,
    ):
        super().__init__(program, config, trace, target, **run_kwargs)
        self.session = session
        self.store = store

    def run(self) -> P2GOResult:
        if self.session is not None:
            store = self.session.store
            result = self.execute(session=self.session)
        else:
            store = resolve_store(self.store)
            result = self.execute(store=store)
        if store is not None:
            # The census the report prints.
            result.store_stats = store.stats()
        return result


def optimize(
    program: Program,
    config: RuntimeConfig,
    trace: Sequence[TracePacket],
    target: TargetModel = DEFAULT_TARGET,
    **kwargs,
) -> P2GOResult:
    """One-call convenience wrapper around :class:`P2GO`."""
    return P2GO(program, config, trace, target, **kwargs).run()
