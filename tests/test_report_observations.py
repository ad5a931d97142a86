"""Tests for decisions and report rendering."""

import importlib
from dataclasses import replace

import pytest

from repro.analysis.dependencies import (
    Dependency,
    DependencyCause,
    DependencyKind,
)
from repro.core import P2GO
from repro.core import passes, phase_dependencies, phase_memory, phase_offload
from repro.core import report
from repro.core.observations import Decision, Phase, Reason, Verdict
from repro.core.pipeline import P2GOResult
from repro.core.report import (
    render_decision,
    render_report,
    stage_table,
    summary_line,
)
from repro.programs import example_firewall


def removed_a_to_b():
    cause = DependencyCause(
        DependencyKind.ACTION, "a_drop", "b_drop", frozenset({"meta.x"})
    )
    return Decision(
        Phase.REMOVE_DEPENDENCIES,
        Verdict.ACCEPTED,
        Dependency("A", "B", DependencyKind.ACTION, (cause,)),
    )


class TestDecisionRendering:
    def test_render_includes_evidence(self):
        text = render_decision(removed_a_to_b())
        assert "phase 2" in text
        assert "ACCEPTED: removed dependency A -> B" in text
        assert "a_drop/b_drop on {meta.x}" in text
        assert "kind: action" in text

    def test_rejected_segment_renders_its_reason(self):
        segment = phase_offload.SegmentCandidate(
            subtree=None, tables=("A", "B"), boundary_guard="valid(udp)"
        )
        text = render_decision(
            Decision(
                Phase.OFFLOAD_CODE, Verdict.REJECTED,
                phase_offload.Offload(segment, "To_Ctl", 0.25),
                Reason.OVER_BUDGET, stages_before=6, stages_after=5,
            )
        )
        assert "REJECTED: kept segment {A, B} in the data plane" in text
        assert "redirects more than the controller-load budget" in text
        assert "redirect_fraction: 25.00%" in text
        assert "stages_after: 5" in text

    def test_every_reason_has_its_text(self):
        assert set(report._REASON_TEXT) == set(Reason)


class TestDecisionLog:
    def test_applied_is_the_accepted_decisions(self, firewall_result):
        verdicts = [d.verdict for d in firewall_result.decisions]
        assert verdicts.count(Verdict.ACCEPTED) == 3
        assert Verdict.REJECTED in verdicts
        assert all(
            d.verdict is Verdict.ACCEPTED for d in firewall_result.applied
        )
        assert [d.phase for d in firewall_result.applied] == [
            Phase.REMOVE_DEPENDENCIES,
            Phase.REDUCE_MEMORY,
            Phase.OFFLOAD_CODE,
        ]

    def test_the_log_holds_no_wall_clock(self, firewall_result):
        """Phase 1 logs nothing: its summary is rendered from the
        initial profile, its cost under "profiling engine:"."""
        assert Phase.PROFILING not in {
            d.phase for d in firewall_result.decisions
        }
        assert "packets/s" not in "\n".join(
            render_decision(d) for d in firewall_result.decisions
        )

    def test_every_decision_hashes(self):
        """A decision is a frozen value down to its candidate, phase
        4's segment included: the 3000-packet firewall run decides in
        all three phases and offloads."""
        result = P2GO(
            example_firewall.build_program(),
            example_firewall.runtime_config(),
            example_firewall.make_trace(3000),
            example_firewall.TARGET,
            store=False,
        ).run()
        assert result.offloaded is not None
        assert {d.phase for d in result.decisions} == {
            Phase.REMOVE_DEPENDENCIES, Phase.REDUCE_MEMORY,
            Phase.OFFLOAD_CODE,
        }
        assert len(set(result.decisions)) == len(result.decisions)

    def test_two_runs_decide_equal_logs(
        self, firewall_program, firewall_config, firewall_trace,
        firewall_result,
    ):
        again = P2GO(
            firewall_program, firewall_config, firewall_trace,
            example_firewall.TARGET,
        ).run()
        assert again.decisions == firewall_result.decisions

    def test_two_cold_runs_render_identical_reports(
        self, firewall_program, firewall_config, firewall_trace
    ):
        """Nothing in a report is a wall clock: two cold runs render
        byte-identical text, and every phase's replay cost compares
        equal."""
        first, second = (
            P2GO(
                firewall_program, firewall_config, firewall_trace,
                example_firewall.TARGET, store=False,
            ).run()
            for _run in range(2)
        )
        assert render_report(first) == render_report(second)
        assert first.profiling_perf == second.profiling_perf
        assert [o.profiling_perf for o in first.outcomes] == [
            o.profiling_perf for o in second.outcomes
        ]


class TestPassResultContract:
    def test_a_change_needs_an_accepted_decision(self, firewall_config):
        with pytest.raises(ValueError, match="needs 1 accepted"):
            passes.PassResult(config=firewall_config)

    def test_a_change_takes_only_one_accepted_decision(
        self, firewall_config
    ):
        with pytest.raises(ValueError, match="not 2"):
            passes.PassResult(
                (removed_a_to_b(), removed_a_to_b()), config=firewall_config
            )

    def test_no_change_takes_no_accepted_decision(self):
        with pytest.raises(ValueError, match="needs 0 accepted"):
            passes.PassResult((removed_a_to_b(),))
        kept = replace(removed_a_to_b(), verdict=Verdict.REJECTED)
        assert passes.PassResult((kept,)).accepted is None


def test_removed_observation_api_stays_removed():
    """Decisions replaced the prose observation log; neither it nor the
    per-phase result classes may drift back."""
    observations = importlib.import_module("repro.core.observations")
    for name in ("Observation", "ObservationKind", "ObservationLog"):
        assert not hasattr(observations, name)
    with pytest.raises(ImportError):
        from repro.core.observations import ObservationLog  # noqa: F401
    for module, name in (
        (phase_dependencies, "DependencyRemovalResult"),
        (phase_memory, "MemoryReductionResult"),
        (phase_offload, "OffloadResult"),
    ):
        assert not hasattr(module, name)
    result = passes.PassResult()
    for name in ("observations", "offloaded"):
        assert not hasattr(result, name)
    for name in ("log", "offloaded", "_accepted"):
        assert not hasattr(passes.PassManager, name)
    assert "observations" not in P2GOResult.__dataclass_fields__
    # A round with nothing to enumerate logs nothing (there is no
    # "none" verdict); a decision's numbers are its own, not its
    # phase's bar.
    assert [v.name for v in Verdict] == [
        "ACCEPTED", "REJECTED", "VETOED", "VIOLATED",
    ]
    for name in ("evaluated", "min_stage_savings", "max_redirect_fraction"):
        assert name not in Decision.__dataclass_fields__


class TestReportRendering:
    def test_stage_table_matches_paper_shape(self, firewall_result):
        text = stage_table(firewall_result)
        assert "Initial Program   (8 stages)" in text
        assert "Removing Deps.    (7 stages)" in text
        assert "Reducing Memory   (6 stages)" in text
        assert "Offloading Code   (3 stages)" in text
        assert "ACL_DHCP+ACL_UDP" in text

    def test_full_report_sections(self, firewall_result):
        text = render_report(firewall_result)
        assert "P2GO optimization report" in text
        assert "stages: 8 -> 3" in text
        assert "controller must now implement" in text
        assert "Sketch_1" in text
        assert "decisions for review" in text
        assert "applied optimizations: 3" in text
        # Phase 1's summary comes from the initial profile, and so do
        # the profiling engine's lines: packets and lookups, no clock.
        total = firewall_result.initial_profile.total_packets
        assert f"profiled {total} packets" in text
        assert "IPv4=100.0%" in text
        engine = text.split("profiling engine:")[1]
        engine = engine.split("decisions for review")[0]
        assert f"packets processed:    {total}" in engine
        assert "table lookups:        IPv4=" in engine
        assert "packets/s" not in text

    def test_summary_line(self, firewall_result):
        line = summary_line(firewall_result)
        assert "example_firewall" in line
        assert "8 -> 7 -> 6 -> 3" in line
        assert "(3 optimizations)" in line

    def test_vetoed_change_is_not_counted_as_applied(self):
        """A vetoed offload used to count as applied: the report said
        three optimizations over the path 8 -> 7 -> 6 -> 6."""
        vetoed = P2GO(
            example_firewall.build_program(),
            example_firewall.runtime_config(),
            example_firewall.make_trace(2000),
            example_firewall.TARGET,
            review_hook=lambda d: d.phase is not Phase.OFFLOAD_CODE,
        ).run()
        line = summary_line(vetoed)
        assert "8 -> 7 -> 6 -> 6 (2 optimizations)" in line
        assert "applied optimizations: 2" in render_report(vetoed)
        (offload,) = [
            d for d in vetoed.decisions
            if d.phase is Phase.OFFLOAD_CODE
            and d.verdict is not Verdict.REJECTED
        ]
        assert offload.verdict is Verdict.VETOED
        assert vetoed.offloaded is None
