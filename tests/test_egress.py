"""Tests for the egress pipeline (§2.1: "an ingress and egress pipeline").

Ingress and egress tables share each stage's memory pools; each
pipeline's dependency timeline restarts at stage 0.  Egress runs only for
packets the traffic manager emits (not dropped, not punted).
"""

import pytest

from repro.p4 import (
    Apply,
    Drop,
    FieldRef,
    If,
    ModifyField,
    ParamRef,
    ProgramBuilder,
    Seq,
    SetEgressPort,
    ValidExpr,
)
from repro.packets import headers as hdr
from repro.packets.craft import udp_packet
from repro.sim import BehavioralSwitch, RuntimeConfig
from repro.sim.parser_engine import parse_packet
from repro.target import compile_program
from repro.target.model import TargetModel

TARGET = TargetModel(
    name="egress-test",
    num_stages=12,
    sram_blocks_per_stage=16,
    tcam_blocks_per_stage=8,
    sram_block_bytes=256,
    tcam_block_bytes=64,
)


def build_router(with_acl=True):
    """FIB at ingress; L2 source-MAC rewrite at egress."""
    b = ProgramBuilder("egress_router")
    for t in (hdr.ETHERNET, hdr.IPV4, hdr.UDP):
        b.header_type(t.name, [(f.name, f.width) for f in t.fields])
    b.header("ethernet", "ethernet_t")
    b.header("ipv4", "ipv4_t")
    b.header("udp", "udp_t")
    b.parser_state(
        "start",
        extracts=["ethernet"],
        select="ethernet.etherType",
        transitions={hdr.ETHERTYPE_IPV4: "parse_ipv4"},
    )
    b.parser_state(
        "parse_ipv4",
        extracts=["ipv4"],
        select="ipv4.protocol",
        transitions={hdr.IPPROTO_UDP: "parse_udp"},
    )
    b.parser_state("parse_udp", extracts=["udp"])
    b.action("fwd", [SetEgressPort(ParamRef("port"))], parameters=["port"])
    b.action("deny", [Drop()])
    b.action(
        "smac_rewrite",
        [ModifyField(FieldRef("ethernet", "srcAddr"), ParamRef("smac"))],
        parameters=["smac"],
    )
    b.table("fib", keys=[("ipv4.dstAddr", "lpm")], actions=["fwd"], size=32)
    if with_acl:
        b.table("acl", keys=[("udp.dstPort", "exact")], actions=["deny"],
                size=16)
    b.table(
        "l2_out",
        keys=[("standard_metadata.egress_port", "exact")],
        actions=["smac_rewrite"],
        size=16,
    )
    ingress = [If(ValidExpr("ipv4"), Apply("fib"))]
    if with_acl:
        ingress.append(If(ValidExpr("udp"), Apply("acl")))
    b.ingress(Seq(ingress))
    b.egress(Apply("l2_out"))
    return b.build()


def router_config():
    cfg = RuntimeConfig()
    cfg.add_entry("fib", [(hdr.ip_to_int("10.0.0.0"), 8)], "fwd", [2])
    cfg.add_entry("fib", [(0, 0)], "fwd", [1])
    cfg.add_entry("acl", [53], "deny")
    cfg.add_entry("l2_out", [2], "smac_rewrite", [0x02CC00000002])
    return cfg


class TestSimulation:
    def test_egress_rewrites_forwarded_packets(self):
        program = build_router()
        switch = BehavioralSwitch(program, router_config())
        result = switch.process(udp_packet("1.1.1.1", "10.9.9.9", 5, 80))
        assert result.egress_port == 2
        assert "l2_out" in result.hit_tables()
        out = parse_packet(program, result.output_bytes)
        assert out.headers["ethernet"]["srcAddr"] == 0x02CC00000002

    def test_egress_skipped_for_dropped_packets(self):
        program = build_router()
        switch = BehavioralSwitch(program, router_config())
        result = switch.process(udp_packet("1.1.1.1", "10.9.9.9", 5, 53))
        assert result.dropped
        assert "l2_out" not in result.executed_tables()

    def test_egress_misses_on_other_ports(self):
        program = build_router()
        switch = BehavioralSwitch(program, router_config())
        result = switch.process(udp_packet("1.1.1.1", "99.9.9.9", 5, 80))
        assert result.egress_port == 1
        steps = {s.table: s.hit for s in result.steps}
        assert steps["l2_out"] is False


class TestValidation:
    def test_table_cannot_live_in_both_pipelines(self):
        b = ProgramBuilder("p")
        b.header_type("h_t", [("f", 8)]).header("h", "h_t")
        b.table("t", keys=[("h.f", "exact")], actions=[])
        b.ingress(Apply("t"))
        b.egress(Apply("t"))
        from repro.exceptions import P4ValidationError

        with pytest.raises(P4ValidationError):
            b.build()

    def test_table_orders(self):
        program = build_router()
        assert program.ingress_tables() == ["fib", "acl"]
        assert program.egress_tables() == ["l2_out"]
        assert program.tables_in_control_order() == [
            "fib", "acl", "l2_out",
        ]


class TestAllocation:
    def test_egress_timeline_restarts_at_stage_zero(self):
        """l2_out depends on nothing in the egress pipeline, so it shares
        stage 1 with the FIB despite running 'after' the ingress."""
        program = build_router()
        result = compile_program(program, TARGET)
        placements = result.allocation.placements
        assert placements["l2_out"].first_stage == 0
        # Ingress: fib stage 0, acl stage 1 (action dep).
        assert placements["fib"].first_stage == 0
        assert placements["acl"].first_stage == 1
        assert result.stages_used == 2

    def test_egress_dependencies_respected(self):
        """Two dependent egress tables still serialize within egress."""
        b = ProgramBuilder("p")
        b.header_type("h_t", [("f", 8)]).header("h", "h_t")
        b.metadata("m", [("x", 8)])
        b.parser_state("start", extracts=["h"])
        b.action("w", [ModifyField(FieldRef("m", "x"), FieldRef("h", "f"))])
        b.action("r", [ModifyField(FieldRef("h", "f"), FieldRef("m", "x"))])
        b.table("e1", keys=[("h.f", "exact")], actions=["w"], size=4)
        b.table("e2", keys=[("m.x", "exact")], actions=["r"], size=4)
        b.egress(Seq([Apply("e1"), Apply("e2")]))
        program = b.build()
        result = compile_program(program, TARGET)
        placements = result.allocation.placements
        assert (
            placements["e2"].first_stage
            > placements["e1"].last_stage - 1
        )
        assert (
            placements["e2"].first_stage >= placements["e1"].last_stage + 1
        )

    def test_shared_memory_pools(self):
        """A full-stage egress register cannot share stage 0 with a
        full-stage ingress register."""
        from repro.p4.actions import RegisterWrite
        from repro.p4.expressions import Const

        b = ProgramBuilder("p")
        b.header_type("h_t", [("f", 8)]).header("h", "h_t")
        b.parser_state("start", extracts=["h"])
        b.register("ri", width=32, size=1024)  # 4096 B = 16 blocks
        b.register("re", width=32, size=1024)
        b.action("wi", [RegisterWrite("ri", Const(0), Const(1))])
        b.action("we", [RegisterWrite("re", Const(0), Const(1))])
        b.table("ti", keys=[], actions=[], default_action="wi")
        b.table("te", keys=[], actions=[], default_action="we")
        b.ingress(Apply("ti"))
        b.egress(Apply("te"))
        result = compile_program(b.build(), TARGET)
        placements = result.allocation.placements
        assert placements["ti"].first_stage == 0
        assert placements["te"].first_stage == 1  # stage 0's SRAM is full


class TestDslRoundTrip:
    def test_egress_control_round_trips(self):
        from repro.p4.control import control_equal, normalize
        from repro.p4.dsl import parse_program, print_program

        program = build_router()
        source = print_program(program)
        assert "control egress {" in source
        parsed = parse_program(source, program.name)
        assert control_equal(
            normalize(parsed.egress), normalize(program.egress)
        )

    def test_empty_egress_not_printed(self, toy_program):
        from repro.p4.dsl import print_program

        assert "control egress" not in print_program(toy_program)


class TestProfiling:
    def test_egress_tables_profiled(self):
        from repro.core.profiler import profile_program

        program = build_router()
        config = router_config()
        trace = [
            udp_packet("1.1.1.1", "10.9.9.9", 5, 80),  # egress hit
            udp_packet("1.1.1.1", "99.9.9.9", 5, 80),  # egress miss
            udp_packet("1.1.1.1", "10.9.9.9", 5, 53),  # dropped
        ]
        profile = profile_program(program, config, trace)
        assert profile.hit_counts.get("l2_out", 0) == 1
        assert profile.apply_counts["l2_out"] == 2  # dropped one skipped
