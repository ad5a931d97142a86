"""Tests for phase 1 — profile construction (§3.1, Ex. 1 annotations,
Table 1)."""

import dataclasses

import pytest

from repro.core.instrument import InstrumentedProgram
from repro.core.pipeline import P2GO
from repro.core.profiler import Profile, Profiler, profile_program
from repro.core.serve import ContinuousOptimizer, GeneratorFeed
from repro.packets.craft import udp_packet
from repro.programs import example_firewall as fw
from tests.conftest import TRACE_SIZE, build_toy_program, toy_config


class TestToyProfile:
    @pytest.fixture(scope="class")
    def profile(self):
        trace = [
            udp_packet("1.1.1.1", "10.0.0.9", 5, 53),   # fib hit, acl hit
            udp_packet("1.1.1.1", "10.0.0.9", 5, 80),   # fib hit, acl miss
            udp_packet("1.1.1.1", "99.0.0.9", 5, 53),   # default route
            udp_packet("1.1.1.1", "99.0.0.9", 5, 80),
        ]
        return profile_program(build_toy_program(), toy_config(), trace)

    def test_totals(self, profile):
        assert profile.total_packets == 4

    def test_hit_rates(self, profile):
        assert profile.hit_rate("fib") == 1.0
        assert profile.hit_rate("acl") == 0.5

    def test_apply_vs_hit(self, profile):
        assert profile.apply_rate("acl") == 1.0

    def test_action_counts(self, profile):
        assert profile.action_counts[("acl", "deny")] == 2
        assert profile.action_counts[("fib", "fwd")] == 4

    def test_nonexclusive_sets_observed(self, profile):
        assert any(
            {("fib", "fwd"), ("acl", "deny")} <= group
            for group in profile.nonexclusive_sets
        )

    def test_actions_coapplied(self, profile):
        assert profile.actions_coapplied(("fib", "fwd"), ("acl", "deny"))

    def test_action_coapplied_with_table(self, profile):
        assert profile.action_coapplied_with_table(("fib", "fwd"), "acl")

    def test_unknown_table_rates_are_zero(self, profile):
        assert profile.hit_rate("ghost") == 0.0
        assert profile.apply_rate("ghost") == 0.0
        assert profile.traversal_rate(["ghost"]) == 0.0

    def test_apply_sets_partition_the_trace(self, profile):
        # Every packet lands in exactly one applied-table set.
        assert sum(profile.apply_sets.values()) == profile.total_packets
        assert profile.apply_sets[frozenset({"fib", "acl"})] == 4

    def test_traversal_rate_is_union_over_packets(self, profile):
        assert profile.traversal_rate(["fib"]) == 1.0
        assert profile.traversal_rate(["acl"]) == 1.0
        # Union, not sum: every packet traverses both tables once.
        assert profile.traversal_rate(["fib", "acl"]) == 1.0
        assert profile.traversal_rate([]) == 0.0


class TestFirewallProfile:
    """Ex. 1's annotated hit rates, §2.2 / Table 1."""

    def test_ipv4_hit_rate_is_total(self, firewall_profile):
        assert firewall_profile.hit_rate("IPv4") == 1.0

    def test_acl_udp_hit_rate(self, firewall_profile):
        assert firewall_profile.hit_rate("ACL_UDP") == pytest.approx(
            0.08, abs=0.005
        )

    def test_acl_dhcp_hit_rate(self, firewall_profile):
        assert firewall_profile.hit_rate("ACL_DHCP") == pytest.approx(
            0.14, abs=0.005
        )

    def test_sketch_rates_low(self, firewall_profile):
        for table in ("Sketch_1", "Sketch_2", "Sketch_Min"):
            assert 0 < firewall_profile.hit_rate(table) < 0.06

    def test_dns_drop_rarest(self, firewall_profile):
        dd = firewall_profile.hit_rate("DNS_Drop")
        assert 0 < dd < firewall_profile.hit_rate("Sketch_1")

    def test_sketch_tables_identical_rates(self, firewall_profile):
        assert firewall_profile.hit_counts["Sketch_1"] == (
            firewall_profile.hit_counts["Sketch_2"]
        )

    def test_table1_sets_present(self, firewall_profile):
        """The paper's Table 1, by table membership of hit-action sets."""
        table_sets = {
            frozenset(pair[0] for pair in group)
            for group in firewall_profile.hit_action_sets()
        }
        assert frozenset({"IPv4", "ACL_UDP"}) in table_sets
        assert frozenset({"IPv4", "ACL_DHCP"}) in table_sets
        assert (
            frozenset({"IPv4", "Sketch_1", "Sketch_2", "Sketch_Min"})
            in table_sets
        )
        assert (
            frozenset(
                {"IPv4", "Sketch_1", "Sketch_2", "Sketch_Min", "DNS_Drop"}
            )
            in table_sets
        )

    def test_acl_actions_never_coapplied(self, firewall_profile):
        """The paper's key phase-2 observation: the two ACL drop actions
        never fire on the same packet."""
        assert not firewall_profile.actions_coapplied(
            ("ACL_UDP", "acl_udp_drop"), ("ACL_DHCP", "acl_dhcp_drop")
        )

    def test_ipv4_and_acl_udp_do_coapply(self, firewall_profile):
        assert firewall_profile.actions_coapplied(
            ("IPv4", "ipv4_forward"), ("ACL_UDP", "acl_udp_drop")
        )

    def test_decisions_recorded_per_packet(self, firewall_profile):
        assert len(firewall_profile.decisions) == TRACE_SIZE


class TestProfileComparison:
    def test_profile_equals_itself_across_runs(
        self, firewall_program, firewall_config, firewall_trace
    ):
        """Profiling is deterministic: two runs produce identical
        profiles (the foundation of §3.3's verification)."""
        p1 = Profiler(firewall_program, firewall_config).profile(
            firewall_trace
        )
        p2 = Profiler(firewall_program, firewall_config).profile(
            firewall_trace
        )
        assert p1.same_behavior_as(p2)
        assert p1.behavior_diff(p2) == []

    def test_behavior_diff_reports_hit_changes(self):
        trace_a = [udp_packet("1.1.1.1", "10.0.0.9", 5, 53)]
        trace_b = [udp_packet("1.1.1.1", "10.0.0.9", 5, 80)]
        program, config = build_toy_program(), toy_config()
        pa = profile_program(program, config, trace_a)
        pb = profile_program(program, config, trace_b)
        assert not pa.same_behavior_as(pb)
        reasons = pa.behavior_diff(pb)
        assert any("acl" in r for r in reasons)


BASE_PROFILE = Profile(
    program_name="p",
    total_packets=2,
    apply_counts={"a": 2, "b": 1},
    hit_counts={"a": 1},
    action_counts={("a", "fwd"): 1, ("a", "dflt"): 1, ("b", "dflt"): 1},
    nonexclusive_sets={
        frozenset({("a", "fwd"), ("b", "dflt")}),
        frozenset({("a", "dflt")}),
    },
    decisions=((1, False, False), (0, True, False)),
)

#: One change per field ``same_behavior_as`` compares (both directions
#: of a non-exclusive set change).
ONE_FIELD_CHANGES = {
    "total_packets": {"total_packets": 3},
    "hit_counts": {"hit_counts": {"a": 2}},
    "apply_counts": {"apply_counts": {"a": 2, "b": 2}},
    "action_counts": {
        "action_counts": {("a", "fwd"): 2, ("b", "dflt"): 1},
    },
    "nonexclusive_sets_gained": {
        "nonexclusive_sets": BASE_PROFILE.nonexclusive_sets
        | {frozenset({("b", "dflt")})},
    },
    "nonexclusive_sets_lost": {
        "nonexclusive_sets": {frozenset({("a", "dflt")})},
    },
    "decisions": {"decisions": ((1, False, False), (0, False, False))},
}


@pytest.mark.parametrize("change", sorted(ONE_FIELD_CHANGES))
def test_every_compared_field_gives_a_reason(change):
    """A profile pair differing in one compared field is not the same
    behaviour, and says why — either way round (phase 3's rejection
    used to read "changed the program's behaviour on the trace: " with
    nothing after it)."""
    changed = dataclasses.replace(BASE_PROFILE, **ONE_FIELD_CHANGES[change])
    for a, b in ((BASE_PROFILE, changed), (changed, BASE_PROFILE)):
        assert not a.same_behavior_as(b)
        assert a.behavior_diff(b)
    assert BASE_PROFILE.behavior_diff(BASE_PROFILE) == []


def test_no_verb_instruments_the_program(monkeypatch):
    """Optimize and serve profile from the step log; ``instrument()`` is
    only the reference the fold is held to.  Counted without a clock:
    every instrumented clone is an ``InstrumentedProgram``."""
    built = []
    real_init = InstrumentedProgram.__init__

    def counting_init(self, **kwargs):
        built.append(kwargs["original"].name)
        real_init(self, **kwargs)

    monkeypatch.setattr(InstrumentedProgram, "__init__", counting_init)
    result = P2GO(
        fw.build_program(), fw.runtime_config(), fw.make_trace(300),
        fw.TARGET, workers=1,
    ).run()
    assert result.session_counters.profile_executions > 0
    served = ContinuousOptimizer(
        fw.build_program(), fw.runtime_config(),
        fw.make_trace(2000, seed=0), fw.TARGET,
        window=300, hit_rate_tolerance=0.15, workers=0,
    ).run(GeneratorFeed.firewall_drift(total=1200, seed=0, shift_at=0.5))
    assert served.stats.packets_processed == 1200
    assert served.stats.misprocessed == 0
    assert built == []
