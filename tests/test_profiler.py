"""Tests for phase 1 — profile construction (§3.1, Ex. 1 annotations,
Table 1)."""

import dataclasses
import importlib.util
from collections import Counter

import pytest

from repro import programs
from repro.core.fleet import family_inputs
from repro.core.instrument import InstrumentedProgram
from repro.core.pipeline import P2GO
from repro.core.profiler import (
    PerfCounters,
    Profile,
    Profiler,
    profile_program,
)
from repro.core.serve import ContinuousOptimizer, GeneratorFeed
from repro.p4 import (
    Apply,
    BinOp,
    Const,
    FieldRef,
    If,
    ModifyField,
    ProgramBuilder,
    Seq,
)
from repro.packets.craft import udp_packet
from repro.packets.packet import pack_fields
from repro.programs import example_firewall as fw
from repro.sim.events import ExecutionStep
from repro.sim.runtime import RuntimeConfig
from repro.sim.switch import BehavioralSwitch
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
        # Every packet lands in exactly one path; all four apply both
        # tables.
        assert sum(profile.paths.values()) == profile.total_packets
        assert all(
            {step.table for step in steps} == {"fib", "acl"}
            for steps in profile.paths
        )

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


class TestExactHitQueries:
    """The hit queries answer packet by packet.  ``t_src``'s one action
    is both an entry action and its default: one packet hits ``t_src``
    and never reaches ``t_dst``; another misses ``t_src`` into the same
    action, reaches ``t_dst`` and hits it.  No packet both hits
    ``t_src`` and traverses ``t_dst``, and no packet hits both."""

    @pytest.fixture(scope="class")
    def profile(self):
        b = ProgramBuilder("exact_hits")
        b.header_type(
            "ipv4_t", [("dscp", 8), ("srcAddr", 32), ("dstAddr", 32)]
        )
        b.header("ipv4", "ipv4_t")
        b.parser_state("start", extracts=["ipv4"])
        b.parser_start("start")
        b.action("mark_a", [ModifyField(FieldRef("ipv4", "dscp"), Const(7))])
        b.action("mark_b", [ModifyField(FieldRef("ipv4", "dscp"), Const(9))])
        b.table(
            "t_src", keys=[("ipv4.dstAddr", "exact")], actions=["mark_a"],
            default_action="mark_a", size=8,
        )
        b.table(
            "t_dst", keys=[("ipv4.srcAddr", "exact")], actions=["mark_b"],
            size=8,
        )
        b.ingress(Seq([
            Apply("t_src"),
            If(
                BinOp("==", FieldRef("ipv4", "srcAddr"), Const(0x0A000002)),
                Apply("t_dst"),
            ),
        ]))
        program = b.build()
        config = RuntimeConfig()
        config.add_entry("t_src", [0xC0A80001], "mark_a")
        config.add_entry("t_dst", [0x0A000002], "mark_b")
        ipv4 = program.header_types["ipv4_t"]
        trace = [
            # Hits t_src; t_dst is not applied.
            pack_fields(ipv4, {"dscp": 0, "srcAddr": 0x0A000001,
                               "dstAddr": 0xC0A80001}),
            # Misses t_src into mark_a; t_dst is applied and hits.
            pack_fields(ipv4, {"dscp": 0, "srcAddr": 0x0A000002,
                               "dstAddr": 0xC0A80009}),
        ]
        return profile_program(program, config, trace)

    def test_the_trace_takes_both_paths(self, profile):
        assert profile.hit_counts == {"t_src": 1, "t_dst": 1}
        assert profile.action_counts[("t_src", "mark_a")] == 2

    def test_hit_coapplied_with_table_is_per_packet(self, profile):
        assert not profile.hit_coapplied_with_table("t_src", "t_dst")
        assert profile.hit_coapplied_with_table("t_dst", "t_src")

    def test_hit_action_sets_are_per_packet(self, profile):
        assert profile.hit_action_sets() == [
            frozenset({("t_dst", "mark_b")}),
            frozenset({("t_src", "mark_a")}),
        ]


class TestProfileComparison:
    def test_profile_equals_itself_across_runs(
        self, firewall_program, firewall_config, firewall_trace
    ):
        """Profiling is deterministic: two runs produce identical
        profiles (the foundation of §3.3's verification)."""
        p1 = Profiler(firewall_program, firewall_config).run(
            firewall_trace
        )
        p2 = Profiler(firewall_program, firewall_config).run(
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


def _step_log(*steps):
    return tuple(ExecutionStep(*step) for step in steps)


FWD_HIT = _step_log(("a", "fwd", True), ("b", "dflt", False))
A_MISS = _step_log(("a", "dflt", False))

BASE_PROFILE = Profile(
    program_name="p",
    paths={FWD_HIT: 1, A_MISS: 1},
    decisions=((1, False, False), (0, True, False)),
)

#: One change per view ``same_behavior_as`` compares, each made on
#: ``paths`` (both directions of a non-exclusive set change).  A packet
#: that applies no table changes the packet count alone.
ONE_FIELD_CHANGES = {
    "total_packets": {"paths": {FWD_HIT: 1, A_MISS: 1, (): 1}},
    "hit_counts": {
        "paths": {FWD_HIT: 1, _step_log(("a", "dflt", True)): 1},
    },
    "apply_counts": {
        "paths": {
            FWD_HIT: 1,
            _step_log(("a", "dflt", False), ("c", "dflt", False)): 1,
        },
    },
    "action_counts": {
        "paths": {FWD_HIT: 1, _step_log(("a", "fwd", False)): 1},
    },
    "nonexclusive_sets_gained": {
        "paths": {FWD_HIT: 1, A_MISS: 1, _step_log(("b", "dflt", False)): 1},
    },
    "nonexclusive_sets_lost": {"paths": {FWD_HIT: 2}},
    "decisions": {"decisions": ((1, False, False), (0, False, False))},
}

#: What the ``behavior_diff`` line each change must produce says.
EXPECTED_LINE = {
    "total_packets": "packet counts differ",
    "hit_counts": "hit count of a changed",
    "apply_counts": "apply count of c changed",
    "action_counts": "action count of a.fwd changed",
    "nonexclusive_sets_gained": "non-exclusive action set",
    "nonexclusive_sets_lost": "non-exclusive action set",
    "decisions": "forwarding decisions changed",
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
        reasons = a.behavior_diff(b)
        assert any(EXPECTED_LINE[change] in line for line in reasons)
    assert BASE_PROFILE.behavior_diff(BASE_PROFILE) == []


def test_a_profile_stores_only_what_its_replay_saw():
    """Three fields; every aggregate is a read-only view of them
    (``tests/test_profile_reference.py`` holds the views, and what a
    pickled profile carries, to a per-packet fold)."""
    assert [f.name for f in dataclasses.fields(Profile)] == [
        "program_name", "paths", "decisions",
    ]
    for view in ("total_packets", "apply_counts", "hit_counts",
                 "action_counts", "nonexclusive_sets"):
        with pytest.raises(AttributeError):
            setattr(BASE_PROFILE, view, None)


def test_a_replay_answers_with_its_profile_only():
    """``Profiler.run`` returns the ``Profile``, under one name, and no
    simulator counters module sits beside it."""
    empty = Profiler(build_toy_program(), toy_config()).run([])
    assert isinstance(empty, Profile)
    assert PerfCounters.of([empty]) == PerfCounters()
    assert not hasattr(Profiler, "profile")
    assert importlib.util.find_spec("repro.sim.perf") is None


@pytest.mark.parametrize(
    "family", [n for n in programs.__all__ if n != "EXAMPLE_TARGET"]
)
def test_perf_counts_the_steps_a_full_replay_takes(family):
    """What a replay cost, read off its profile, is what a full-result
    replay of the same trace shows: one packet per result, one lookup
    per step (a table applied twice to a packet counts twice)."""
    program, config, trace, _target = family_inputs(family, packets=300)
    results = BehavioralSwitch(program, config).process_many(trace)
    perf = PerfCounters.of([Profiler(program, config).run(trace)])
    assert perf.packets == len(results) == len(trace)
    assert perf.table_lookups == dict(
        Counter(step.table for result in results for step in result.steps)
    )


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
        fw.TARGET,
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
