"""Tests for the software controller and end-to-end offload equivalence."""

import random
from dataclasses import replace

import pytest

from repro.controller import (
    OffloadController,
    check_result,
    compare_behavior,
    compare_with_offload,
    segment_program,
)
from repro.controller.equivalence import same_packet
from repro.core.phase_offload import (
    enumerate_candidates,
    make_offloaded_program,
)
from repro.core.observations import Phase, Verdict
from repro.core.pipeline import P2GO
from repro.p4 import Apply, FieldRef, ModifyField
from repro.p4.dsl import parse_program
from repro.packets.craft import dns_query
from repro.packets.headers import ip_to_int
from repro.programs import example_firewall, failure_detection, telemetry
from repro.programs.common import EXAMPLE_TARGET
from repro.sim import BehavioralSwitch, RuntimeConfig
from repro.traffic.generators import tcp_background


def dns_candidate(program):
    return next(
        c
        for c in enumerate_candidates(program)
        if set(c.tables) == {"Sketch_1", "Sketch_2", "Sketch_Min",
                             "DNS_Drop"}
    )


class TestSegmentProgram:
    def test_segment_keeps_parser_and_registers(self, firewall_program):
        candidate = dns_candidate(firewall_program)
        seg = segment_program(firewall_program, candidate.subtree)
        assert seg.parser is not None
        assert "dns_cms_row0" in seg.registers
        assert set(seg.tables_in_control_order()) == set(candidate.tables)

    def test_segment_validates(self, firewall_program):
        candidate = dns_candidate(firewall_program)
        segment_program(firewall_program, candidate.subtree).validate()


class TestOffloadControllerFirewall:
    def test_controller_reproduces_dns_drops(
        self, firewall_program, firewall_config, firewall_trace
    ):
        """Phase-4 contract, end to end: switch+controller == original."""
        candidate = dns_candidate(firewall_program)
        optimized = make_offloaded_program(firewall_program, candidate)
        remaining = [
            t for t in optimized.tables if t not in candidate.tables
        ]
        report = compare_with_offload(
            firewall_program,
            firewall_config,
            optimized,
            firewall_config.restricted_to(remaining),
            candidate,
            firewall_trace,
        )
        assert report.equivalent
        assert report.redirected > 0

    def test_controller_stats(self, firewall_program, firewall_config):
        candidate = dns_candidate(firewall_program)
        controller = OffloadController(
            firewall_program, candidate, firewall_config
        )
        heavy_src = example_firewall.HEAVY_DNS_SRC
        heavy_dst = example_firewall.HEAVY_DNS_DST
        for i in range(200):
            controller.handle_packet(dns_query(heavy_src, heavy_dst, i))
        assert controller.stats.packets_processed == 200
        # Queries 128..200 exceed the threshold and are dropped.
        assert controller.stats.packets_dropped == 200 - 127

    def test_controller_reset(self, firewall_program, firewall_config):
        candidate = dns_candidate(firewall_program)
        controller = OffloadController(
            firewall_program, candidate, firewall_config
        )
        controller.handle_packet(dns_query("10.0.0.1", "10.0.0.2"))
        controller.reset()
        assert controller.stats.packets_processed == 0
        snapshot = controller.register_snapshot()
        assert all(
            all(v == 0 for v in cells) for cells in snapshot.values()
        )


class TestOffloadControllerFailureDetection:
    def test_alarm_notifications_counted(self):
        program = failure_detection.build_program()
        config = failure_detection.runtime_config()
        trace = failure_detection.make_trace(2000)
        candidate = next(
            c
            for c in enumerate_candidates(program)
            if set(c.tables) == {"cms_0", "cms_1", "FailureAlarm"}
        )
        optimized = make_offloaded_program(program, candidate)
        remaining = [
            t for t in optimized.tables if t not in candidate.tables
        ]
        report = compare_with_offload(
            program,
            config,
            optimized,
            config.restricted_to(remaining),
            candidate,
            trace,
        )
        assert report.equivalent
        # Redirected = the retransmission share, a few percent.
        assert 0 < report.redirected < len(trace) * 0.08


class TestCompareBehavior:
    def test_identical_programs_equivalent(
        self, firewall_program, firewall_config, firewall_trace
    ):
        report = compare_behavior(
            firewall_program,
            firewall_config,
            firewall_program,
            firewall_config,
            firewall_trace[:500],
        )
        assert report.equivalent
        assert report.total == 500

    def test_detects_divergence(self, firewall_program, firewall_config,
                                firewall_trace):
        loose = firewall_config.clone()
        loose.entries["ACL_UDP"] = []  # remove the UDP ACL rules
        report = compare_behavior(
            firewall_program,
            firewall_config,
            firewall_program,
            loose,
            firewall_trace[:500],
        )
        assert not report.equivalent


# ----------------------------------------------------------------------
# check_result on a hand-built case: a drop upstream of the segment.

BLOCKED_SRC, HEAVY_SRC, LIGHT_SRC = "10.9.0.9", "10.1.0.1", "10.2.0.2"
DNS_LIMIT = 4


GUARDED_LIMITER = """
header_type ethernet_t {
    fields { dstAddr : 48; srcAddr : 48; etherType : 16; }
}
header_type ipv4_t {
    fields {
        version : 4; ihl : 4; dscp : 8; totalLen : 16; identification : 16;
        flags : 3; fragOffset : 13; ttl : 8; protocol : 8;
        hdrChecksum : 16; srcAddr : 32; dstAddr : 32;
    }
}
header_type udp_t {
    fields { srcPort : 16; dstPort : 16; length : 16; checksum : 16; }
}
header_type tcp_t {
    fields {
        srcPort : 16; dstPort : 16; seqNo : 32; ackNo : 32; dataOffset : 4;
        res : 4; flags : 8; window : 16; checksum : 16; urgentPtr : 16;
    }
}
header_type dns_t {
    fields {
        id : 16; flags : 16; qdcount : 16; ancount : 16; nscount : 16;
        arcount : 16;
    }
}
header_type lim_t { fields { idx : 32; count : 32; } }

header ethernet_t ethernet;
header ipv4_t ipv4;
header udp_t udp;
header tcp_t tcp;
header dns_t dns;
metadata lim_t lim;

register dns_seen { width : 32; instance_count : 960; }

action fwd(port) { set_egress_port(port); }
action block() { drop(); }
action over_limit() { drop(); }
action count_query() {
    hash(lim.idx, crc32_a, {ipv4.srcAddr}, size(dns_seen));
    register_read(lim.count, dns_seen, lim.idx);
    add_to_field(lim.count, 1);
    register_write(dns_seen, lim.idx, lim.count);
}

table fib {
    reads { ipv4.dstAddr : lpm; }
    actions { fwd; }
    size : 64;
}
table blocklist {
    reads { ipv4.srcAddr : exact; }
    actions { block; }
    size : 64;
}
table dns_count { default_action : count_query; }
table dns_limit { default_action : over_limit; }

parser start {
    extract(ethernet);
    return select(ethernet.etherType) { 2048 : parse_ipv4; default : accept; }
}
parser parse_ipv4 {
    extract(ipv4);
    return select(ipv4.protocol) {
        6 : parse_tcp; 17 : parse_udp; default : accept;
    }
}
parser parse_tcp { extract(tcp); return accept; }
parser parse_udp {
    extract(udp);
    return select(udp.dstPort) { 53 : parse_dns; default : accept; }
}
parser parse_dns { extract(dns); return accept; }

control ingress {
    if (valid(ipv4)) {
        apply(fib);
        apply(blocklist);
    }
    if (valid(dns)) {
        apply(dns_count);
        if (lim.count >= DNS_LIMIT) {
            apply(dns_limit);
        }
    }
}
"""


def guarded_limiter_program():
    """Four tables: a FIB, a source blocklist that drops, and — behind
    them, on DNS only — a stateful per-source query counter whose limit
    table drops from the ``DNS_LIMIT``-th query on."""
    source = GUARDED_LIMITER.replace("DNS_LIMIT", str(DNS_LIMIT))
    return parse_program(source, "guarded_limiter")


def with_offload(result, offload):
    """``result`` with its accepted phase-4 decision moving ``offload``
    to the controller instead."""
    return replace(
        result,
        decisions=tuple(
            replace(d, candidate=offload)
            if d.phase is Phase.OFFLOAD_CODE and d.verdict is Verdict.ACCEPTED
            else d
            for d in result.decisions
        ),
    )


class TestCheckResultWithAnUpstreamDrop:
    """ROADMAP item 1 (c), by hand: the enterprise mismatch reduced to
    a drop upstream of a self-contained stateful segment, with traffic
    that crosses both."""

    @pytest.fixture(scope="class")
    def case(self):
        program = guarded_limiter_program()
        config = RuntimeConfig()
        config.add_entry("fib", [(0, 0)], "fwd", [1])
        config.add_entry("blocklist", [ip_to_int(BLOCKED_SRC)], "block")
        dns = (
            [dns_query(BLOCKED_SRC, "192.168.0.53", i) for i in range(3)]
            + [dns_query(HEAVY_SRC, "192.168.0.53", i) for i in range(9)]
            + [dns_query(LIGHT_SRC, "192.168.0.53", i) for i in range(2)]
        )
        rng = random.Random(5)
        trace = dns + tcp_background(200 - len(dns), rng)
        rng.shuffle(trace)
        result = P2GO(
            program, config, trace, EXAMPLE_TARGET, phases=(4,), store=False
        ).run()
        blocked_dns = {i for i, p in enumerate(trace) if p in dns[:3]}
        return config, trace, result, blocked_dns

    def test_the_run_offloads_the_limiter(self, case):
        _config, _trace, result, _blocked = case
        offload = result.offloaded
        assert offload.segment.tables == ("dns_count", "dns_limit")
        assert offload.redirect_table == "To_Ctl"
        assert result.controller_load == pytest.approx(14 / 200)

    def test_switch_plus_controller_reproduce_the_original(self, case):
        config, trace, result, _blocked = case
        report = check_result(result, config, trace)
        assert report.equivalent
        assert (report.total, report.redirected) == (200, 14)

    def test_a_controller_that_drops_nothing_is_caught(self, case):
        """Orig drops, neither side drops: the heavy source's queries
        from the limit on."""
        config, trace, result, _blocked = case
        offload = result.offloaded
        lenient = replace(
            offload.segment, subtree=Apply("dns_count"), tables=("dns_count",)
        )
        broken = with_offload(result, replace(offload, segment=lenient))
        report = check_result(broken, config, trace)
        assert len(report.mismatches) == 9 - (DNS_LIMIT - 1)

    def test_a_controller_that_drops_everything_is_caught(self, case):
        """Orig forwards, the controller drops: every query under the
        limit from a source that is not blocked."""
        config, trace, result, _blocked = case
        offload = result.offloaded
        harsh = replace(
            offload.segment, subtree=Apply("dns_limit"), tables=("dns_limit",)
        )
        broken = with_offload(result, replace(offload, segment=harsh))
        report = check_result(broken, config, trace)
        assert len(report.mismatches) == (DNS_LIMIT - 1) + 2

    def test_a_switch_that_lost_its_drop_is_caught(self, case):
        """Orig drops, neither side drops: the blocked source's queries
        once the switch's blocklist is empty."""
        config, trace, result, blocked_dns = case
        emptied = result.final_config.restricted_to(["fib", "To_Ctl"])
        report = check_result(
            replace(result, final_config=emptied), config, trace
        )
        assert set(report.mismatches) == blocked_dns

    def test_the_controller_only_verdict_flagged_the_upstream_drops(
        self, case
    ):
        """What ``compare_with_offload`` judged until the pair's verdict
        became ``switch or controller``: the controller's drop bit alone
        differs from the original's on exactly the redirected packets
        the blocklist drops."""
        config, trace, result, blocked_dns = case
        original = BehavioralSwitch(result.original_program, config)
        switch = BehavioralSwitch(
            result.optimized_program, result.final_config
        )
        controller = OffloadController(
            result.original_program, result.offloaded.segment, config
        )
        flagged = set()
        for index, data in enumerate(trace):
            r_orig = original.process(data, 0)
            if switch.process(data, 0).to_controller:
                r_ctl = controller.handle_packet(data, 0)
                if r_ctl.dropped != r_orig.dropped:
                    flagged.add(index)
        assert flagged == blocked_dns and len(blocked_dns) == 3


# ----------------------------------------------------------------------
# Behaviour is bytes: a value the program writes into the packet.


def count_in_header(program):
    """telemetry with ``dns_hh``'s count written into
    ``ipv4.identification``, as INT writes a count into a header."""
    bump = program.actions["dns_hh_bump"]
    bump = replace(bump, primitives=(*bump.primitives, ModifyField(
        FieldRef("ipv4", "identification"), FieldRef("dns_hh_meta", "count")
    )))
    return replace(program, actions={**program.actions, "dns_hh_bump": bump})


def count_in_header_trace():
    """telemetry's trace plus 600 queries to one resolver from 65 536
    possible sources: enough flows that fewer cells collide more."""
    sources = random.Random(7)
    return telemetry.make_trace(4000) + [
        dns_query(ip_to_int("10.8.0.0") + sources.randrange(1 << 16),
                  "192.168.77.9")
        for _ in range(600)
    ]


class TestOutputBytes:
    def test_same_packet_compares_bytes_unless_both_drop(
        self, firewall_program, firewall_config, firewall_trace
    ):
        switch = BehavioralSwitch(firewall_program, firewall_config)
        results = switch.process_many(firewall_trace[:200])
        forwarded = next(r for r in results if not r.dropped)
        dropped = next(r for r in results if r.dropped)
        assert same_packet(forwarded, forwarded)
        assert not same_packet(
            forwarded, replace(forwarded, output_bytes=b"other")
        )
        assert same_packet(dropped, replace(dropped, output_bytes=b"other"))

    def test_compare_behavior_detects_a_rewritten_field(self):
        """Every decision holds; the source MAC written on the way out
        does not."""
        program = telemetry.build_program()
        config = telemetry.runtime_config()
        other = config.clone()
        other.entries["l2"] = [
            replace(entry, action_args=(0x02AA00000001,))
            for entry in other.entries["l2"]
        ]
        trace = telemetry.make_trace(300)
        report = compare_behavior(program, config, program, other, trace)
        forwarded = [
            r.index
            for r in BehavioralSwitch(program, config).process_many(trace)
            if not r.dropped and "l2" in r.hit_tables()
        ]
        assert forwarded and report.mismatches == forwarded

    def test_a_resize_that_changes_a_written_count_is_not_equivalent(self):
        """Phase 3 shrinks ``dns_hh_reg`` 960 -> 896 (5 -> 4 stages):
        every forwarding decision holds, but the extra collisions change
        the counts written into 232 of the 4 600 packets.  Phase 3's
        profile licence, which compares decisions only, still accepts
        the resize; the oracle does not."""
        program = count_in_header(telemetry.build_program())
        trace = count_in_header_trace()
        result = P2GO(
            program, telemetry.runtime_config(), trace, telemetry.TARGET,
            phases=(2, 3), store=False,
        ).run()
        (applied,) = result.applied
        assert applied.candidate.name == "dns_hh_reg"
        assert (applied.candidate.original_size,
                applied.candidate.new_size) == (960, 896)
        report = check_result(result, telemetry.runtime_config(), trace)
        assert len(report.mismatches) == 232
        decisions = [
            [r.forwarding_decision() for r in
             BehavioralSwitch(p, c).process_many(trace)]
            for p, c in ((program, telemetry.runtime_config()),
                         (result.optimized_program, result.final_config))
        ]
        assert decisions[0] == decisions[1]
