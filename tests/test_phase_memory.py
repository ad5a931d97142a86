"""Tests for phase 3 — memory reduction (§3.3).

The headline behaviours: candidates are halving-probes that save a stage,
the lowest-hit-rate candidate goes first, binary search finds the minimum
sufficient reduction, and a resize that perturbs the profile (the CMS
collision) is rejected.
"""

import pytest

from repro.core.observations import Reason
from repro.core.phase_dependencies import run_phase as dep_phase
from repro.core.phase_memory import (
    ResourceKind,
    find_candidates,
    linear_minimal_reduction,
    minimal_reduction,
    run_phase,
)
from repro.core.profiler import Profiler
from repro.core.session import OptimizationContext
from repro.programs import example_firewall, sourceguard
from repro.target import compile_program


def rejected(outcome):
    """The resizes a phase-3 round verified and turned down."""
    return [
        d for d in outcome.decisions if d.reason is Reason.BEHAVIOUR_CHANGED
    ]


def saving(ctx, program, profile):
    """The halvings that save a stage, lowest hit rate first."""
    baseline = ctx.compile(program).stages_used
    halved = find_candidates(ctx, program, profile)
    return [c for c, stages in halved.items() if stages < baseline]


@pytest.fixture(scope="module")
def after_phase2(firewall_program, firewall_config, firewall_trace):
    """Ex. 1 after the ACL dependency removal (phase 3's actual input)."""
    result = compile_program(firewall_program, example_firewall.TARGET)
    profile = Profiler(firewall_program, firewall_config).run(
        firewall_trace
    )
    outcome = dep_phase(firewall_program, result, profile)
    program = outcome.program
    profile2 = Profiler(program, firewall_config).run(firewall_trace)
    return program, profile2


@pytest.fixture(scope="module")
def ctx(after_phase2, firewall_config, firewall_trace):
    """The session every phase-3 probe goes through."""
    program, _profile = after_phase2
    with OptimizationContext(
        program, firewall_config, firewall_trace, example_firewall.TARGET
    ) as session:
        yield session


class TestCandidates:
    def test_candidates_found(self, ctx, after_phase2):
        program, profile = after_phase2
        candidates = saving(ctx, program, profile)
        names = {(c.kind.value, c.name) for c in candidates}
        assert ("register", "dns_cms_row0") in names
        assert ("register", "dns_cms_row1") in names
        assert ("table", "IPv4") in names

    def test_lowest_hit_rate_first(self, ctx, after_phase2):
        """§3.3: P2GO selects the candidate with the lowest hit rate to
        minimize behavioural risk — the sketch rows (2%) before the FIB
        (100%)."""
        program, profile = after_phase2
        candidates = saving(ctx, program, profile)
        assert candidates[0].name == "dns_cms_row0"
        assert candidates[-1].name == "IPv4"

    def test_small_tables_not_candidates(self, ctx, after_phase2):
        program, profile = after_phase2
        candidates = saving(ctx, program, profile)
        names = {c.name for c in candidates}
        assert "ACL_UDP" not in names
        assert "DNS_Drop" not in names


class TestBinarySearch:
    def test_minimal_reduction_matches_pinned_constant(
        self, ctx, after_phase2
    ):
        """Regression pin: the engineered collision flows assume the
        binary search lands at REDUCED_SKETCH_CELLS."""
        program, profile = after_phase2
        baseline = compile_program(
            program, example_firewall.TARGET
        ).stages_used
        candidates = find_candidates(ctx, program, profile)
        row0 = next(c for c in candidates if c.name == "dns_cms_row0")
        minimal = minimal_reduction(ctx, program, row0, baseline)
        assert minimal == example_firewall.REDUCED_SKETCH_CELLS

    def test_minimal_reduction_really_is_minimal(self, ctx, after_phase2):
        program, profile = after_phase2
        baseline = compile_program(
            program, example_firewall.TARGET
        ).stages_used
        candidates = find_candidates(ctx, program, profile)
        row0 = next(c for c in candidates if c.name == "dns_cms_row0")
        minimal = minimal_reduction(ctx, program, row0, baseline)
        # One more cell and the saving disappears.
        bigger = program.with_register_size("dns_cms_row0", minimal + 1)
        assert (
            compile_program(bigger, example_firewall.TARGET).stages_used
            == baseline
        )
        smaller = program.with_register_size("dns_cms_row0", minimal)
        assert (
            compile_program(smaller, example_firewall.TARGET).stages_used
            < baseline
        )

    def test_linear_scan_agrees_with_binary_search(self, ctx, after_phase2):
        """Ablation grounding: both search strategies find the same
        answer; binary search just needs fewer compiles."""
        program, profile = after_phase2
        baseline = compile_program(
            program, example_firewall.TARGET
        ).stages_used
        candidates = find_candidates(ctx, program, profile)
        row0 = next(c for c in candidates if c.name == "dns_cms_row0")
        before = ctx.counters.compile_calls
        b = minimal_reduction(ctx, program, row0, baseline)
        binary_probes = ctx.counters.compile_calls - before
        before = ctx.counters.compile_calls
        l = linear_minimal_reduction(ctx, program, row0, baseline, step=4)
        linear_probes = ctx.counters.compile_calls - before
        assert b == l
        assert binary_probes < linear_probes


class TestVerification:
    def test_sketch_resize_rejected_fib_accepted(
        self, ctx, after_phase2, firewall_config
    ):
        """The paper's exact narrative: Sketch_1's resize changes
        DNS_Drop's hit rate (CMS collision) and is discarded; the IPv4
        resize verifies clean and is applied."""
        program, profile = after_phase2
        outcome = run_phase(ctx, program, firewall_config, profile)
        accepted = outcome.accepted.candidate
        assert accepted.name == "IPv4"
        assert accepted.kind is ResourceKind.TABLE
        rejected_names = {d.candidate.name for d in rejected(outcome)}
        assert "dns_cms_row0" in rejected_names
        assert "dns_cms_row1" in rejected_names

    def test_rejection_reason_mentions_dns_drop(
        self, ctx, after_phase2, firewall_config
    ):
        program, profile = after_phase2
        outcome = run_phase(ctx, program, firewall_config, profile)
        assert any(
            "DNS_Drop" in line
            for d in rejected(outcome)
            for line in d.evidence
        )

    def test_stage_saved(self, ctx, after_phase2, firewall_config):
        program, profile = after_phase2
        outcome = run_phase(ctx, program, firewall_config, profile)
        accepted = outcome.accepted
        assert accepted.stages_after == accepted.stages_before - 1

    def test_candidate_order_override(
        self, ctx, after_phase2, firewall_config
    ):
        """Ablation hook: forcing the FIB first skips the rejected sketch
        probes entirely."""
        program, profile = after_phase2
        outcome = run_phase(
            ctx,
            program,
            firewall_config,
            profile,
            candidate_order=lambda cs: sorted(
                cs, key=lambda c: -c.hit_rate
            ),
        )
        assert outcome.accepted.candidate.name == "IPv4"
        assert rejected(outcome) == []


class TestSourceguard:
    def test_single_array_trimmed_single_digit_percent(self):
        """Table 3 row 2: one Bloom array shrinks by a single-digit
        percentage and a stage is saved (paper: −8.4%, ours: −6.2%)."""
        program = sourceguard.build_program()
        config = sourceguard.runtime_config(program)
        trace = sourceguard.make_trace(2000)
        profile = Profiler(program, config).run(trace)
        with OptimizationContext(
            program, config, trace, sourceguard.TARGET
        ) as ctx:
            outcome = run_phase(ctx, program, config, profile)
        accepted = outcome.accepted.candidate
        assert accepted.kind is ResourceKind.REGISTER
        assert accepted.name in ("sg_array0", "sg_array1")
        assert 0.0 < accepted.reduction_fraction < 0.10
        assert outcome.accepted.stages_after == 4
