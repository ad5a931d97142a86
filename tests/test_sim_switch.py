"""Behavioural tests for the switch simulator."""

import pickle

import pytest

from repro.exceptions import SimulationError
from repro.p4 import (
    AddToField,
    Apply,
    BinOp,
    Const,
    Drop,
    FieldRef,
    If,
    MinOf,
    ModifyField,
    ProgramBuilder,
    RegisterRead,
    RegisterWrite,
    HashFields,
    RegisterSize,
    SendToController,
    Seq,
    SetEgressPort,
    ValidExpr,
)
from repro.p4.types import CPU_PORT, DROP_PORT
from repro.packets import headers as hdr
from repro.packets.craft import dns_query, plain_ipv4_packet, udp_packet
from repro.sim import BehavioralSwitch, ExecutionStep, RuntimeConfig
from repro.sim.parser_engine import deparse_packet, parse_packet
from tests.conftest import build_toy_program, toy_config


@pytest.fixture
def switch():
    return BehavioralSwitch(build_toy_program(), toy_config())


class TestForwarding:
    def test_lpm_forwarding(self, switch):
        result = switch.process(udp_packet("1.1.1.1", "10.2.3.4", 10, 20))
        assert result.egress_port == 3
        assert not result.dropped

    def test_default_route(self, switch):
        result = switch.process(udp_packet("1.1.1.1", "99.2.3.4", 10, 20))
        assert result.egress_port == 1

    def test_acl_drop(self, switch):
        result = switch.process(udp_packet("1.1.1.1", "10.2.3.4", 10, 53))
        assert result.dropped
        assert result.egress_port == DROP_PORT

    def test_non_ipv4_skips_everything(self, switch):
        pkt = udp_packet("1.1.1.1", "2.2.2.2", 1, 2)
        # Corrupt the ethertype so parsing stops at ethernet.
        pkt = pkt[:12] + b"\x86\xdd" + pkt[14:]
        result = switch.process(pkt)
        assert result.executed_tables() == []
        assert result.egress_port == 0

    def test_non_udp_skips_acl(self, switch):
        result = switch.process(plain_ipv4_packet("1.1.1.1", "10.0.0.1"))
        assert result.executed_tables() == ["fib"]

    def test_steps_record_hits_and_misses(self, switch):
        result = switch.process(udp_packet("1.1.1.1", "10.2.3.4", 10, 20))
        steps = {s.table: s.hit for s in result.steps}
        assert steps == {"fib": True, "acl": False}

    def test_ingress_port_metadata(self, switch):
        result = switch.process(
            udp_packet("1.1.1.1", "10.2.3.4", 10, 20), ingress_port=7
        )
        assert result.headers["standard_metadata"]["ingress_port"] == 7

    def test_trace_with_per_packet_ports(self, switch):
        pkt = udp_packet("1.1.1.1", "10.2.3.4", 10, 20)
        results = switch.process_many([pkt, (pkt, 9)])
        assert results[0].headers["standard_metadata"]["ingress_port"] == 0
        assert results[1].headers["standard_metadata"]["ingress_port"] == 9


class TestHitMissBranches:
    def build(self, on_hit=None, on_miss=None):
        b = ProgramBuilder("p")
        b.header_type("h_t", [("f", 16)]).header("h", "h_t")
        b.parser_state("start", extracts=["h"])
        b.metadata("m", [("mark", 8)])
        b.action("mark1", [ModifyField(FieldRef("m", "mark"), Const(1))])
        b.action("mark2", [ModifyField(FieldRef("m", "mark"), Const(2))])
        b.table("t", keys=[("h.f", "exact")], actions=["mark1"])
        b.table("t_hit", keys=[], actions=[], default_action="mark1")
        b.table("t_miss", keys=[], actions=[], default_action="mark2")
        b.ingress(
            Apply(
                "t",
                on_hit=Apply("t_hit") if on_hit else None,
                on_miss=Apply("t_miss") if on_miss else None,
            )
        )
        return b.build()

    def test_on_hit_taken(self):
        program = self.build(on_hit=True, on_miss=True)
        cfg = RuntimeConfig().add_entry("t", [5], "mark1")
        sw = BehavioralSwitch(program, cfg)
        from repro.packets.packet import pack_fields

        result = sw.process(pack_fields(program.header_types["h_t"], {"f": 5}))
        assert result.executed_tables() == ["t", "t_hit"]

    def test_on_miss_taken(self):
        program = self.build(on_hit=True, on_miss=True)
        cfg = RuntimeConfig().add_entry("t", [5], "mark1")
        sw = BehavioralSwitch(program, cfg)
        from repro.packets.packet import pack_fields

        result = sw.process(pack_fields(program.header_types["h_t"], {"f": 6}))
        assert result.executed_tables() == ["t", "t_miss"]


class TestStatefulProcessing:
    def build_counter_program(self):
        b = ProgramBuilder("counter")
        b.header_type("h_t", [("key", 16)]).header("h", "h_t")
        b.parser_state("start", extracts=["h"])
        b.metadata("m", [("idx", 32), ("count", 32), ("low", 32)])
        b.register("reg", width=32, size=8)
        b.action(
            "bump",
            [
                HashFields(
                    FieldRef("m", "idx"), "crc32",
                    (FieldRef("h", "key"),), RegisterSize("reg"),
                ),
                RegisterRead(FieldRef("m", "count"), "reg", FieldRef("m", "idx")),
                AddToField(FieldRef("m", "count"), Const(1)),
                RegisterWrite("reg", FieldRef("m", "idx"), FieldRef("m", "count")),
                MinOf(FieldRef("m", "low"), FieldRef("m", "count"), Const(3)),
            ],
        )
        b.table("counter", keys=[], actions=[], default_action="bump")
        b.action("alert", [SendToController(5)])
        b.table("alarm", keys=[], actions=[], default_action="alert")
        b.ingress(
            Seq(
                [
                    Apply("counter"),
                    If(
                        BinOp(">=", FieldRef("m", "count"), Const(3)),
                        Apply("alarm"),
                    ),
                ]
            )
        )
        return b.build()

    def test_state_accumulates_across_packets(self):
        from repro.packets.packet import pack_fields

        program = self.build_counter_program()
        sw = BehavioralSwitch(program)
        pkt = pack_fields(program.header_types["h_t"], {"key": 42})
        counts = [
            sw.process(pkt).headers["m"]["count"] for _ in range(4)
        ]
        assert counts == [1, 2, 3, 4]

    def test_threshold_triggers_controller(self):
        from repro.packets.packet import pack_fields

        program = self.build_counter_program()
        sw = BehavioralSwitch(program)
        pkt = pack_fields(program.header_types["h_t"], {"key": 42})
        results = [sw.process(pkt) for _ in range(4)]
        assert [r.to_controller for r in results] == [
            False, False, True, True,
        ]
        assert results[2].controller_reason == 5
        assert results[2].egress_port == CPU_PORT
        assert [r.index for r in results if r.to_controller] == [2, 3]
        # A punted packet's facts live on its result; the switch keeps
        # no queue and no counters beside it.
        for gone in ("controller_queue", "perf"):
            assert not hasattr(sw, gone)

    def test_min_of(self):
        from repro.packets.packet import pack_fields

        program = self.build_counter_program()
        sw = BehavioralSwitch(program)
        pkt = pack_fields(program.header_types["h_t"], {"key": 1})
        assert sw.process(pkt).headers["m"]["low"] == 1  # min(1, 3)
        sw.process(pkt)
        sw.process(pkt)
        assert sw.process(pkt).headers["m"]["low"] == 3  # min(4, 3)

    def test_reset_state(self):
        from repro.packets.packet import pack_fields

        program = self.build_counter_program()
        sw = BehavioralSwitch(program)
        pkt = pack_fields(program.header_types["h_t"], {"key": 42})
        for _ in range(3):
            sw.process(pkt)
        sw.reset_state()
        first = sw.process(pkt)
        assert first.headers["m"]["count"] == 1
        assert first.index == 0

    def test_register_inits_applied_and_reapplied(self):
        from repro.packets.packet import pack_fields

        program = self.build_counter_program()
        cfg = RuntimeConfig().init_register(
            "reg",
            __import__("repro.sim.hashing", fromlist=["compute_hash"])
            .compute_hash("crc32", ((42, 16),), 8),
            10,
        )
        sw = BehavioralSwitch(program, cfg)
        pkt = pack_fields(program.header_types["h_t"], {"key": 42})
        assert sw.process(pkt).headers["m"]["count"] == 11
        sw.reset_state()
        assert sw.process(pkt).headers["m"]["count"] == 11


class TestDeparsing:
    def test_output_preserves_unmodified_packet(self, switch):
        pkt = udp_packet("1.1.1.1", "10.2.3.4", 10, 20, b"payload")
        result = switch.process(pkt)
        assert result.output_bytes == pkt

    def test_parse_deparse_identity(self):
        program = build_toy_program()
        pkt = dns_query("10.0.0.1", "8.8.8.8")
        parsed = parse_packet(program, pkt)
        out = deparse_packet(
            program, parsed.headers, parsed.valid, parsed.payload
        )
        assert out == pkt

    def test_too_short_packet_rejected(self, switch):
        with pytest.raises(SimulationError):
            switch.process(b"\x00" * 4)


class TestExecutionStep:
    """The step log is shared by every consumer and keyed on by the
    profilers, so a step is an immutable, picklable named tuple."""

    def test_contract(self, switch):
        result = switch.process(udp_packet("1.1.1.1", "10.2.3.4", 10, 20))
        step = result.steps[0]
        assert isinstance(step, ExecutionStep)
        assert ExecutionStep._fields == ("table", "action", "hit")
        with pytest.raises(AttributeError):
            step.hit = not step.hit
        assert pickle.loads(pickle.dumps(step)) == step
