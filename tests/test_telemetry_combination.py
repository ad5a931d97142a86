"""End-to-end tests of multi-segment offload (§3.4's DP) on the
telemetry program."""

import pytest

from repro.controller import check_result
from repro.core.observations import Reason, Verdict
from repro.core.passes import PassManager
from repro.core.phase_offload import (
    OffloadPass,
    enumerate_candidates,
    evaluate_candidates,
    make_combined_offloaded_program,
    run_phase,
    select_combination,
)
from repro.core.pipeline import P2GOResult
from repro.core.session import OptimizationContext
from repro.exceptions import ControllerError, OffloadError
from repro.programs import telemetry
from repro.target import compile_program


@pytest.fixture(scope="module")
def setup():
    program = telemetry.build_program()
    config = telemetry.runtime_config()
    trace = telemetry.make_trace(3000)
    return program, config, trace


@pytest.fixture
def ctx(setup):
    """A fresh session on the telemetry inputs, for the phase-4 probes."""
    program, config, trace = setup
    with OptimizationContext(
        program, config, trace, telemetry.TARGET
    ) as session:
        yield session


class TestTelemetryProgram:
    def test_five_stages(self, setup):
        program, _config, _trace = setup
        assert compile_program(program, telemetry.TARGET).stages_used == 5

    def test_feature_rates(self, setup):
        program, config, trace = setup
        from repro.core.profiler import Profiler

        profile = Profiler(program, config).profile(trace)
        assert profile.apply_rate("dns_hh") == pytest.approx(0.024, abs=0.003)
        assert profile.apply_rate("ttl_probe") == pytest.approx(
            0.01, abs=0.003
        )
        assert profile.apply_rate("syn_mon") == pytest.approx(
            0.05, abs=0.005
        )


class TestCombination:
    def test_no_single_candidate_saves_two(self, ctx, setup):
        program, config, _trace = setup
        evaluated = evaluate_candidates(
            ctx, program, config, enumerate_candidates(program)
        )
        affordable = [
            e for e in evaluated if e.candidate[0].redirect_fraction <= 0.10
        ]
        assert all(
            e.stages_before - e.stages_after < 2 for e in affordable
        )

    def test_dp_picks_cheapest_pair(self, ctx, setup):
        program, config, _trace = setup
        evaluated = evaluate_candidates(
            ctx, program, config, enumerate_candidates(program)
        )
        combo = select_combination(
            evaluated, min_stage_savings=2, max_redirect_fraction=0.10
        )
        tables = {
            t for e in combo for o in e.candidate for t in o.segment.tables
        }
        assert tables == {"dns_hh", "ttl_probe"}

    def test_combined_program_saves_two_stages(self, ctx, setup):
        program, config, _trace = setup
        evaluated = evaluate_candidates(
            ctx, program, config, enumerate_candidates(program)
        )
        combo = select_combination(
            evaluated, min_stage_savings=2, max_redirect_fraction=0.10
        )
        combined = make_combined_offloaded_program(
            program, [e.candidate[0].segment for e in combo]
        )
        assert compile_program(combined, telemetry.TARGET).stages_used == 3
        # Each segment has its own redirect table.
        assert "To_Ctl" in combined.tables
        assert "To_Ctl_2" in combined.tables

    def test_overlapping_segments_rejected(self, setup):
        program, _config, _trace = setup
        candidates = enumerate_candidates(program)
        dns = next(c for c in candidates if c.tables == ("dns_hh",))
        with pytest.raises(OffloadError):
            make_combined_offloaded_program(program, [dns, dns])

    def test_run_phase_with_combination(self, ctx, setup):
        program, config, _trace = setup
        outcome = run_phase(
            ctx,
            program,
            config,
            min_stage_savings=2,
            allow_combination=True,
        )
        combination = outcome.accepted.candidate
        assert len(combination) == 2
        offloaded = {t for o in combination for t in o.segment.tables}
        assert offloaded == {"dns_hh", "ttl_probe"}
        assert (
            compile_program(outcome.program, telemetry.TARGET).stages_used
            == outcome.accepted.stages_after
            == 3
        )

    def test_run_phase_without_combination_flag(self, ctx, setup):
        program, config, _trace = setup
        outcome = run_phase(
            ctx,
            program,
            config,
            min_stage_savings=2,
            allow_combination=False,
        )
        assert not outcome.changed
        assert {d.verdict for d in outcome.decisions} == {Verdict.REJECTED}
        assert {d.reason for d in outcome.decisions} <= {
            Reason.NO_STAGE_SAVED, Reason.OVER_BUDGET,
        }
        assert len(outcome.decisions) == len(enumerate_candidates(program))

    def test_combined_behavior_preserved(self, ctx, setup):
        """Each redirected packet gets its original verdict from the
        matching controller segment."""
        program, config, trace = setup
        outcome = run_phase(
            ctx, program, config, min_stage_savings=2, allow_combination=True
        )
        from repro.sim import BehavioralSwitch

        original = BehavioralSwitch(program, config)
        optimized = BehavioralSwitch(outcome.program, outcome.config)
        redirected = 0
        for entry in trace:
            data = entry[0] if isinstance(entry, tuple) else entry
            r_orig = original.process(data)
            r_opt = optimized.process(data)
            if r_opt.to_controller:
                redirected += 1
                # Redirected packets are exactly those that traversed an
                # offloaded feature in the original.
                executed = set(r_orig.executed_tables())
                assert executed & {"dns_hh", "ttl_probe"}
            else:
                assert (
                    r_opt.forwarding_decision()
                    == r_orig.forwarding_decision()
                )
        assert 0 < redirected < len(trace) * 0.05

    def test_result_records_every_segment_of_the_combination(self, setup):
        """Through the pass framework the run's record is the union, in
        segment order, each segment with its own redirect table — and
        the one-segment oracle says so instead of guessing."""
        program, config, trace = setup
        ctx = OptimizationContext(program, config, trace, telemetry.TARGET)
        manager = PassManager(ctx)
        outcomes = manager.run(
            [OffloadPass(allow_combination=True, min_stage_savings=2)]
        )
        result = P2GOResult(
            original_program=program,
            optimized_program=ctx.program,
            final_config=ctx.config,
            decisions=tuple(manager.decisions),
            initial_profile=ctx.profile(program, config),
            outcomes=outcomes,
        )
        assert result.offloaded_tables == ("dns_hh", "ttl_probe")
        assert [o.redirect_table for o in result.offloaded] == [
            "To_Ctl", "To_Ctl_2",
        ]
        profile = ctx.profile()
        assert [o.redirect_fraction for o in result.offloaded] == [
            profile.apply_rate("To_Ctl"), profile.apply_rate("To_Ctl_2"),
        ]
        assert result.controller_load == pytest.approx(0.034, abs=0.004)
        with pytest.raises(ControllerError, match="one offloaded segment"):
            check_result(result, config, trace)
