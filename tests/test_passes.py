"""The pass framework vs the seed orchestrator.

The pass-manager pipeline must produce an *equivalent*
:class:`~repro.core.pipeline.P2GOResult` to the seed ``if/elif``
orchestrator (kept verbatim in :mod:`repro.core.seed_pipeline`) for the
paper's default phase order, the ablation reorderings, and single-phase
runs — while its session executes strictly fewer compiles and trace
replays (ISSUE 3's acceptance bar).
"""

import dataclasses

import pytest

from repro.core.observations import Decision, Phase, Verdict
from repro.core.passes import PassManager, PassResult, PhaseOutcome
from repro.core.phase_dependencies import DependencyRemovalPass
from repro.core.phase_memory import MemoryReductionPass
from repro.core.phase_offload import OffloadPass
from repro.core.pipeline import P2GO
from repro.core.seed_pipeline import run_seed
from repro.core.session import (
    OptimizationContext,
    SessionCounters,
    config_fingerprint,
    program_fingerprint,
)
from repro.programs import example_firewall

#: Phase orders the ablation bench exercises (ISSUE 3): the paper's
#: default, offload-first, memory-then-deps, and single-phase runs.
ORDERS = [(2, 3, 4), (4, 2, 3), (3, 2), (2,), (3,), (4,)]

#: Smaller than the suite-wide 4000 (six orders run twice each), but
#: large enough that the offload phase still fires on the firewall.
TRACE_SIZE = 2000


@pytest.fixture(scope="module")
def inputs():
    return (
        example_firewall.build_program(),
        example_firewall.runtime_config(),
        example_firewall.make_trace(TRACE_SIZE),
        example_firewall.TARGET,
    )


def assert_equivalent(new, seed):
    """P2GOResult equivalence modulo the new perf/counter fields."""
    assert program_fingerprint(new.optimized_program) == (
        program_fingerprint(seed.optimized_program)
    )
    assert new.stage_history() == seed.stage_history()
    assert [o.stage_map for o in new.outcomes] == [
        o.stage_map for o in seed.outcomes
    ]
    assert new.decisions == seed.decisions
    assert new.offloaded_tables == seed.offloaded_tables
    assert config_fingerprint(new.final_config) == (
        config_fingerprint(seed.final_config)
    )
    assert new.initial_profile.same_behavior_as(seed.initial_profile)


@pytest.mark.parametrize("order", ORDERS, ids=lambda o: "-".join(map(str, o)))
def test_order_equivalent_to_seed_with_fewer_invocations(inputs, order):
    program, config, trace, target = inputs
    new = P2GO(program, config, trace, target, phases=order).run()
    seed = run_seed(program, config, trace, target, phases=order)
    assert_equivalent(new, seed)
    # The seed's calls are its true invocation counts (every one ran in
    # the seed).  The pass framework never executes more...
    assert (
        new.session_counters.compile_executions
        <= seed.session_counters.compile_calls
    )
    assert (
        new.session_counters.profile_executions
        <= seed.session_counters.profile_calls
    )
    # ...and makes every multi-phase order strictly cheaper.  (A
    # phase-2-only run is already minimal in the seed: one compile and
    # one profile per accepted removal, nothing redundant to cache.)
    if len(order) > 1:
        assert (
            new.session_counters.profile_executions
            + new.session_counters.compile_executions
        ) < (
            seed.session_counters.profile_calls
            + seed.session_counters.compile_calls
        )


def test_default_order_profile_strictly_fewer(inputs):
    """The acceptance criterion's strongest form holds on the paper's
    default order: both compiles *and* replays strictly drop."""
    program, config, trace, target = inputs
    new = P2GO(program, config, trace, target).run()
    seed = run_seed(program, config, trace, target)
    assert (
        new.session_counters.compile_executions
        < seed.session_counters.compile_calls
    )
    assert (
        new.session_counters.profile_executions
        < seed.session_counters.profile_calls
    )


class TestPassManager:
    def test_review_hook_veto_is_a_rollback(self, inputs):
        program, config, trace, target = inputs
        ctx = OptimizationContext(program, config, trace, target)
        manager = PassManager(ctx, review_hook=lambda decision: False)
        outcome = manager.run_pass(DependencyRemovalPass(max_rounds=8))
        # The vetoed change was never applied: session state unchanged.
        assert ctx.program is program
        assert ctx.config is config
        assert outcome.stages == ctx.compile().stages_used
        (vetoed,) = [
            d for d in manager.decisions if d.verdict is Verdict.VETOED
        ]
        assert vetoed.candidate.src == "ACL_UDP"
        assert Verdict.ACCEPTED not in {d.verdict for d in manager.decisions}

    def test_vetoed_offload_leaves_no_record(self, inputs):
        program, config, trace, target = inputs
        ctx = OptimizationContext(program, config, trace, target)
        manager = PassManager(ctx, review_hook=lambda decision: False)
        manager.run_pass(OffloadPass())
        assert ctx.program is program
        assert [
            d.verdict for d in manager.decisions
            if d.verdict is not Verdict.REJECTED
        ] == [Verdict.VETOED]

    def test_config_only_change_keeps_program(self, inputs):
        program, config, trace, target = inputs
        restricted = config.restricted_to(["IPv4"])

        class ConfigOnly:
            name, phase, max_rounds = "stub", Phase.OFFLOAD_CODE, 1

            def run(self, ctx):
                decision = Decision(self.phase, Verdict.ACCEPTED)
                return PassResult((decision,), config=restricted)

        ctx = OptimizationContext(program, config, trace, target)
        PassManager(ctx).run_pass(ConfigOnly())
        assert ctx.program is program
        assert ctx.config is restricted

    def test_pass_sequence_shares_one_cache(self, inputs):
        program, config, trace, target = inputs
        ctx = OptimizationContext(program, config, trace, target)
        manager = PassManager(ctx)
        outcomes = manager.run(
            [
                DependencyRemovalPass(max_rounds=8),
                MemoryReductionPass(),
                OffloadPass(),
            ]
        )
        assert [o.stages for o in outcomes] == [7, 6, 3]
        assert all(isinstance(o, PhaseOutcome) for o in outcomes)
        assert ctx.counters.compile_hits > 0
        assert ctx.counters.profile_hits > 0
        (accepted,) = [
            d for d in manager.decisions if d.verdict is Verdict.ACCEPTED
            and d.phase is Phase.OFFLOAD_CODE
        ]
        offload = accepted.candidate
        assert offload.segment.tables == (
            "Sketch_1", "Sketch_2", "Sketch_Min", "DNS_Drop",
        )
        assert offload.redirect_table == "To_Ctl"

    def test_phase_perf_attributed_per_outcome(self, inputs):
        program, config, trace, target = inputs
        ctx = OptimizationContext(program, config, trace, target)
        ctx.profile()  # initial profile, as the pipeline would
        manager = PassManager(ctx)
        outcomes = manager.run(
            [DependencyRemovalPass(max_rounds=8), MemoryReductionPass()]
        )
        # The dependency pass's first profile is a memo hit; its later
        # rounds and the memory pass's verification replays are real.
        for outcome in outcomes:
            if outcome.profiling_perf is not None:
                assert outcome.profiling_perf.packets % len(trace) == 0
                assert outcome.profiling_perf.packets > 0

    def test_unknown_phase_still_rejected(self, inputs):
        program, config, trace, target = inputs
        with pytest.raises(ValueError, match="unknown optimization phase"):
            P2GO(program, config, trace, target, phases=(2, 9)).run()


class TestResultExtras:
    def test_session_counters_on_result(self, firewall_result):
        counters = firewall_result.session_counters
        assert counters is not None
        assert counters.compile_hits > 0
        assert counters.compile_executions <= counters.compile_calls
        assert counters.profile_executions <= counters.profile_calls

    def test_phase_outcomes_carry_profiling_perf(self, firewall_result):
        # Initial profiling always replays; later phases replay whenever
        # they accepted a change (this run accepts one per phase).
        assert firewall_result.outcomes[0].profiling_perf is not None
        assert firewall_result.profiling_perf is not None
        for outcome in firewall_result.outcomes[1:]:
            if outcome.profiling_perf is not None:
                assert outcome.profiling_perf.packets > 0

    def test_shared_session_across_runs(self, inputs):
        """A second run on the same session is nearly free: the first
        run's cache already holds every compile/profile it needs."""
        program, config, trace, target = inputs
        ctx = OptimizationContext(program, config, trace, target)
        P2GO(program, config, trace, target, session=ctx).run()
        executions_after_first = ctx.counters.compile_executions
        replays_after_first = ctx.counters.profile_executions
        second = P2GO(program, config, trace, target, session=ctx).run()
        assert ctx.counters.compile_executions == executions_after_first
        assert ctx.counters.profile_executions == replays_after_first
        assert second.stages_after == second.outcomes[-1].stages

    def test_shared_session_results_count_their_own_run(self, inputs):
        """Regression: a result on a shared session held the session's
        live counters, so a second run moved the first result's counts
        (50 -> 100 compile calls on the firewall)."""
        program, config, trace, target = inputs
        ctx = OptimizationContext(program, config, trace, target)
        first = P2GO(program, config, trace, target, session=ctx).run()
        own = first.session_counters.as_dict()
        second = P2GO(program, config, trace, target, session=ctx).run()
        assert first.session_counters.as_dict() == own
        assert first.session_counters is not second.session_counters
        # The second run asks the same questions; the memo answers all.
        assert second.session_counters.compile_calls == own["compile_calls"]
        assert second.session_counters.compile_executions == 0
        assert second.session_counters.profile_executions == 0
        assert ctx.counters.compile_calls == 2 * own["compile_calls"]
        assert ctx.counters == SessionCounters.of(ctx.probes)

    def test_session_for_another_target_is_refused(self, inputs):
        """A session compiles for the one target it was built with.  A
        run on a same-named but roomier target used to adopt it anyway
        and report the session target's stages (8 -> 6) instead of its
        own (3 -> 3); now it raises and leaves the session untouched."""
        program, config, trace, target = inputs
        trace = trace[:600]
        roomy = dataclasses.replace(
            target, sram_blocks_per_stage=64, tcam_blocks_per_stage=64
        )
        own = P2GO(program, config, trace, roomy, store=False).run()
        assert (own.stages_before, own.stages_after) == (3, 3)
        with OptimizationContext(program, config, trace, target) as ctx:
            with pytest.raises(ValueError, match="fingerprints differ"):
                P2GO(program, config, trace, roomy, session=ctx).run()
            assert ctx.counters.compile_calls == 0
            assert ctx.counters.profile_calls == 0
