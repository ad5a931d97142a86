"""Tests for the paper's extension features implemented here:

* §3.2's runtime dependency-violation guard, and
* §6's profile drift detection.
"""

import pytest

from repro.core.drift import DriftDetector, DriftKind
from repro.core.phase_dependencies import run_phase as dep_phase
from repro.core.profiler import Profiler
from repro.core.runtime_guard import (
    GUARD_REASON,
    add_dependency_guard,
    guard_notifications,
    mirror_guard_entries,
)
from repro.exceptions import OptimizationError
from repro.packets.craft import dhcp_packet, udp_packet
from repro.programs import example_firewall
from repro.sim import BehavioralSwitch
from repro.target import compile_program


@pytest.fixture(scope="module")
def rewritten(firewall_program, firewall_config, firewall_trace):
    result = compile_program(firewall_program, example_firewall.TARGET)
    profile = Profiler(firewall_program, firewall_config).profile(
        firewall_trace
    )
    step = dep_phase(firewall_program, result, profile)
    assert step.changed
    return step.program, step.accepted.candidate


class TestRuntimeGuard:
    def test_guard_installs(self, rewritten, firewall_config):
        program, dep = rewritten
        guarded, guard = add_dependency_guard(program, dep.src, dep.dst)
        assert guard.table in guarded.tables
        # Guard mirrors ACL_DHCP's keys.
        assert (
            guarded.tables[guard.table].keys
            == guarded.tables["ACL_DHCP"].keys
        )

    def test_guard_fires_on_violating_packet(self, rewritten,
                                             firewall_config):
        """A packet that hits ACL_UDP *and* arrives on an untrusted DHCP
        ingress port is exactly the packet the removed dependency would
        have mattered for — the guard reports it."""
        program, dep = rewritten
        guarded, guard = add_dependency_guard(program, dep.src, dep.dst)
        config = mirror_guard_entries(firewall_config, guard)
        switch = BehavioralSwitch(guarded, config)
        violating = (
            udp_packet("10.0.0.1", "10.0.0.2", 4000, 137),  # blocked port
            example_firewall.UNTRUSTED_INGRESS_PORTS[0],
        )
        results = switch.process_trace([violating])
        assert guard_notifications(results) == [0]
        assert results[0].controller_reason == GUARD_REASON

    def test_guard_silent_on_normal_traffic(self, rewritten,
                                            firewall_config,
                                            firewall_trace):
        program, dep = rewritten
        guarded, guard = add_dependency_guard(program, dep.src, dep.dst)
        config = mirror_guard_entries(firewall_config, guard)
        switch = BehavioralSwitch(guarded, config)
        results = switch.process_trace(firewall_trace[:800])
        assert guard_notifications(results) == []

    def test_guard_requires_rewrite_shape(self, firewall_program):
        with pytest.raises(OptimizationError):
            add_dependency_guard(firewall_program, "ACL_UDP", "ACL_DHCP")

    def test_guard_requires_keyed_table(self, rewritten):
        program, _dep = rewritten
        with pytest.raises(OptimizationError):
            add_dependency_guard(program, "ACL_UDP", "ghost")


class TestDriftDetection:
    def test_no_drift_on_similar_traffic(
        self, firewall_program, firewall_config, firewall_profile, rewritten
    ):
        _program, dep = rewritten
        detector = DriftDetector(
            firewall_program,
            firewall_config,
            firewall_profile,
            removed_dependencies=[dep],
        )
        fresh = example_firewall.make_trace(4000, seed=99)
        report = detector.check(fresh)
        violations = [
            f for f in report.findings
            if f.kind is DriftKind.DEPENDENCY_MANIFESTS
        ]
        assert violations == []

    def test_dependency_drift_detected(
        self, firewall_program, firewall_config, firewall_profile, rewritten
    ):
        """Fresh traffic where blocked-UDP packets arrive on untrusted
        DHCP ports makes the removed dependency manifest."""
        _program, dep = rewritten
        detector = DriftDetector(
            firewall_program,
            firewall_config,
            firewall_profile,
            removed_dependencies=[dep],
            hit_rate_tolerance=1.1,  # isolate the dependency check
        )
        # DHCP packets to a *blocked UDP port*: impossible — instead, a
        # packet hitting both ACLs needs udp.dstPort in the blocked set
        # AND an untrusted ingress port AND a parsed dhcp header; dhcp
        # parses on ports 67/68 only, so the violating flow uses port 68
        # as source... The actual violation: a DHCP packet (dstPort 68)
        # where 68 is ALSO in the installed blocked set.  Install-time
        # drift: the operator blocks port 68.
        config = firewall_config.clone()
        config.add_entry("ACL_UDP", [68], "acl_udp_drop")
        detector_drifted_config = DriftDetector(
            firewall_program,
            config,
            firewall_profile,
            removed_dependencies=[dep],
            hit_rate_tolerance=1.1,
        )
        fresh = [
            (dhcp_packet("172.16.0.1"),
             example_firewall.UNTRUSTED_INGRESS_PORTS[0])
        ] * 10
        report = detector_drifted_config.check(fresh)
        kinds = {f.kind for f in report.findings}
        assert DriftKind.DEPENDENCY_MANIFESTS in kinds

    def test_controller_overload_detected(
        self, firewall_program, firewall_config, firewall_profile
    ):
        detector = DriftDetector(
            firewall_program,
            firewall_config,
            firewall_profile,
            offload_tables=("Sketch_1", "Sketch_2", "Sketch_Min",
                            "DNS_Drop"),
            offload_budget=0.10,
            hit_rate_tolerance=1.1,
        )
        # A DNS flood: far more of the trace reaches the offloaded branch.
        from repro.traffic.generators import dns_stream

        flood = dns_stream(
            example_firewall.HEAVY_DNS_SRC,
            example_firewall.HEAVY_DNS_DST,
            500,
        )
        report = detector.check(flood)
        kinds = {f.kind for f in report.findings}
        assert DriftKind.CONTROLLER_OVERLOAD in kinds
        assert report.drifted
        assert "controller_overload" in report.render()

    def test_controller_overload_counts_union_of_disjoint_tables(
        self, firewall_program, firewall_config, firewall_profile
    ):
        """Two offloaded tables each traversed by 30% *disjoint*
        traffic must trip a 50% budget: redirected traffic is the
        union of packets reaching any offloaded table.  The old
        per-table maximum saw 30% twice and reported no overload."""
        import random

        from repro.traffic.generators import (
            dhcp_stream,
            dns_stream,
            interleave,
            tcp_background,
        )

        rng = random.Random(7)
        dhcp = dhcp_stream(
            90, rng,
            ingress_port=example_firewall.UNTRUSTED_INGRESS_PORTS[0],
        )
        dns = dns_stream(
            example_firewall.HEAVY_DNS_SRC,
            example_firewall.HEAVY_DNS_DST,
            90,
        )
        fresh = interleave(rng, dhcp, dns, tcp_background(120, rng))

        offload_tables = ("ACL_DHCP", "Sketch_1")
        budget = 0.5
        # The premise: disjoint 30% slices, each alone under budget.
        profile = Profiler(firewall_program, firewall_config).profile(
            fresh
        )
        for table in offload_tables:
            assert profile.traversal_rate([table]) <= budget
        assert profile.traversal_rate(offload_tables) > budget

        detector = DriftDetector(
            firewall_program,
            firewall_config,
            firewall_profile,
            offload_tables=offload_tables,
            offload_budget=budget,
            hit_rate_tolerance=1.1,  # isolate the overload check
        )
        report = detector.check(fresh)
        kinds = {f.kind for f in report.findings}
        assert DriftKind.CONTROLLER_OVERLOAD in kinds

    def test_hit_rate_shift_detected(
        self, firewall_program, firewall_config, firewall_profile
    ):
        detector = DriftDetector(
            firewall_program,
            firewall_config,
            firewall_profile,
            hit_rate_tolerance=0.05,
        )
        from repro.traffic.generators import udp_background
        import random

        flood = udp_background(
            300, random.Random(5), example_firewall.BLOCKED_UDP_PORTS
        )
        report = detector.check(flood)
        shifted = {
            f.subject for f in report.findings
            if f.kind is DriftKind.HIT_RATE_SHIFT
        }
        assert "ACL_UDP" in shifted

    def test_clean_report_renders(self, firewall_program, firewall_config,
                                  firewall_profile):
        detector = DriftDetector(
            firewall_program, firewall_config, firewall_profile,
            hit_rate_tolerance=1.1,
        )
        fresh = example_firewall.make_trace(1000, seed=1)
        report = detector.check(fresh)
        assert not report.drifted
        assert "no drift" in report.render()
