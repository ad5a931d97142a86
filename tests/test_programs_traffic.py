"""Tests for the example programs' traces and runtime configurations."""

import pytest

from repro.packets import headers as hdr
from repro.packets.packet import unpack_fields
from repro.programs import (
    example_firewall,
    failure_detection,
    nat_gre,
    sourceguard,
)
from repro.sim import BehavioralSwitch
from repro.sim.hashing import compute_hash
from repro.traffic.generators import find_partner_flow, ip_pair_key


class TestConfigsValidate:
    def test_all_configs_validate(self):
        cases = [
            (example_firewall.build_program(),
             example_firewall.runtime_config()),
            (nat_gre.build_program(), nat_gre.runtime_config()),
            (failure_detection.build_program(),
             failure_detection.runtime_config()),
        ]
        program = sourceguard.build_program()
        cases.append((program, sourceguard.runtime_config(program)))
        for program, config in cases:
            config.validate(program)


class TestFirewallTrace:
    @pytest.fixture(scope="class")
    def trace(self):
        return example_firewall.make_trace(4000)

    def test_total_size(self, trace):
        assert len(trace) == pytest.approx(4000, abs=50)

    def test_deterministic(self):
        a = example_firewall.make_trace(1000)
        b = example_firewall.make_trace(1000)
        pay = lambda t: [p if isinstance(p, bytes) else p[0] for p in t]
        assert pay(a) == pay(b)

    def test_dhcp_share(self, trace):
        dhcp = [p for p in trace if isinstance(p, tuple)]
        # 14% untrusted + 1% trusted DHCP.
        assert len(dhcp) == pytest.approx(0.15 * len(trace), rel=0.05)

    def test_blocked_udp_share(self, trace):
        blocked = 0
        for entry in trace:
            data = entry[0] if isinstance(entry, tuple) else entry
            ip = unpack_fields(hdr.IPV4, data[14:])
            if ip["protocol"] != hdr.IPPROTO_UDP:
                continue
            udp = unpack_fields(hdr.UDP, data[34:])
            if udp["dstPort"] in example_firewall.BLOCKED_UDP_PORTS:
                blocked += 1
        assert blocked == pytest.approx(0.08 * len(trace), rel=0.05)

    def test_partner_flows_at_tail(self, trace):
        tail = trace[-4:]
        flow_a, flow_b = example_firewall.partner_flows()
        srcs = set()
        for entry in tail:
            data = entry[0] if isinstance(entry, tuple) else entry
            srcs.add(unpack_fields(hdr.IPV4, data[14:])["srcAddr"])
        assert srcs == {flow_a, flow_b}


class TestPartnerFlowEngineering:
    """The §2.2 phase-3 collision, verified hash-by-hash."""

    def test_flow_a_collides_only_when_row0_shrinks(self):
        heavy = ip_pair_key(
            example_firewall.HEAVY_DNS_SRC, example_firewall.HEAVY_DNS_DST
        )
        flow_a, _ = example_firewall.partner_flows()
        key = ip_pair_key(flow_a, example_firewall.HEAVY_DNS_DST)
        reduced = example_firewall.REDUCED_SKETCH_CELLS
        full = example_firewall.SKETCH_CELLS
        assert compute_hash("crc32_a", key, reduced) == compute_hash(
            "crc32_a", heavy, reduced
        )
        assert compute_hash("crc32_a", key, full) != compute_hash(
            "crc32_a", heavy, full
        )
        assert compute_hash("crc32_b", key, full) == compute_hash(
            "crc32_b", heavy, full
        )

    def test_flow_b_mirrors_for_row1(self):
        heavy = ip_pair_key(
            example_firewall.HEAVY_DNS_SRC, example_firewall.HEAVY_DNS_DST
        )
        _, flow_b = example_firewall.partner_flows()
        key = ip_pair_key(flow_b, example_firewall.HEAVY_DNS_DST)
        reduced = example_firewall.REDUCED_SKETCH_CELLS
        full = example_firewall.SKETCH_CELLS
        assert compute_hash("crc32_b", key, reduced) == compute_hash(
            "crc32_b", heavy, reduced
        )
        assert compute_hash("crc32_b", key, full) != compute_hash(
            "crc32_b", heavy, full
        )
        assert compute_hash("crc32_a", key, full) == compute_hash(
            "crc32_a", heavy, full
        )

    def test_find_partner_flow_raises_when_impossible(self):
        from repro.exceptions import ReproError
        import repro.traffic.generators as gen

        original = gen.MAX_COLLISION_TRIALS
        gen.MAX_COLLISION_TRIALS = 10
        try:
            with pytest.raises(ReproError):
                find_partner_flow(
                    heavy_key=ip_pair_key(1, 2),
                    collide_algo="crc32_a",
                    collide_size=1_000_000,
                    collide_full_size=2_000_000,
                    other_algo="crc32_b",
                    other_size=2_000_000,
                    dst=2,
                    src_start=100,
                )
        finally:
            gen.MAX_COLLISION_TRIALS = original


class TestNatGreTrace:
    def test_no_packet_uses_both_features(self):
        """The trace property phase 2 exploits: no NAT'd tunnel packets."""
        program = nat_gre.build_program()
        switch = BehavioralSwitch(program, nat_gre.runtime_config())
        for result in switch.process_many(nat_gre.make_trace(1000)):
            hits = set(result.hit_tables())
            assert not ({"nat", "gre_term"} <= hits)

    def test_both_features_exercised(self):
        program = nat_gre.build_program()
        switch = BehavioralSwitch(program, nat_gre.runtime_config())
        results = switch.process_many(nat_gre.make_trace(1000))
        assert any("nat" in r.hit_tables() for r in results)
        assert any("gre_term" in r.hit_tables() for r in results)

    def test_gre_decap_removes_header(self):
        program = nat_gre.build_program()
        switch = BehavioralSwitch(program, nat_gre.runtime_config())
        results = switch.process_many(nat_gre.make_trace(500))
        decapped = [
            r for r in results if "gre_term" in r.hit_tables()
        ]
        assert decapped
        # The GRE header's bytes are gone from the output.
        width = program.header_type_of("gre").byte_width
        for r in decapped:
            assert len(r.output_bytes) == len(r.input_bytes) - width


class TestSourceguardTrace:
    def test_spoofed_traffic_dropped_legit_forwarded(self):
        program = sourceguard.build_program()
        config = sourceguard.runtime_config(program)
        switch = BehavioralSwitch(program, config)
        results = switch.process_many(sourceguard.make_trace(1000))
        dropped = sum(1 for r in results if r.dropped)
        # ~5% spoofed traffic (Bloom filters never false-negative, so
        # every legitimate client passes).
        assert dropped == pytest.approx(0.05 * len(results), rel=0.2)

    def test_no_false_negatives_for_assigned_ips(self):
        from repro.packets.craft import udp_packet

        program = sourceguard.build_program()
        config = sourceguard.runtime_config(program)
        switch = BehavioralSwitch(program, config)
        for ip in sourceguard.ASSIGNED_CLIENT_IPS:
            result = switch.process(
                udp_packet(ip, "10.0.9.1", 1234, 9000)
            )
            assert not result.dropped


class TestFailureDetectionTrace:
    def test_retransmission_share(self):
        program = failure_detection.build_program()
        switch = BehavioralSwitch(
            program, failure_detection.runtime_config()
        )
        results = switch.process_many(failure_detection.make_trace(2000))
        cms = sum(1 for r in results if "cms_0" in r.executed_tables())
        assert cms == pytest.approx(0.03 * len(results), rel=0.25)

    def test_alarms_rarer_than_retransmissions(self):
        program = failure_detection.build_program()
        switch = BehavioralSwitch(
            program, failure_detection.runtime_config()
        )
        results = switch.process_many(failure_detection.make_trace(2000))
        cms = sum(1 for r in results if "cms_0" in r.executed_tables())
        alarms = sum(1 for r in results if r.to_controller)
        assert 0 < alarms < cms

    def test_alarm_reason_code(self):
        program = failure_detection.build_program()
        switch = BehavioralSwitch(
            program, failure_detection.runtime_config()
        )
        results = switch.process_many(failure_detection.make_trace(2000))
        reasons = {
            r.controller_reason for r in results if r.to_controller
        }
        assert reasons == {failure_detection.ALARM_REASON}
