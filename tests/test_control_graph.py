"""Tests for execution-path enumeration and static mutual exclusivity."""

import pytest

from repro.analysis.control_graph import ControlGraph
from repro.p4 import (
    Apply,
    Drop,
    If,
    LNot,
    ProgramBuilder,
    Seq,
    ValidExpr,
)
from tests.conftest import build_toy_program


def _tables_reached(cg):
    return {table for path in cg.paths for table in path.tables()}


class TestPathEnumeration:
    def test_toy_program_paths(self, toy_program):
        cg = ControlGraph(toy_program)
        # Feasible validity combos: none/ipv4/ipv4+udp, times hit/miss
        # outcomes of the applied tables.
        assert cg.paths
        assert _tables_reached(cg) == {"fib", "acl"}

    def test_keyless_table_always_misses(self):
        b = ProgramBuilder("p")
        b.header_type("h_t", [("f", 8)]).header("h", "h_t")
        b.parser_state("start", extracts=["h"])
        b.action("noop2", [])
        b.table("k", keys=[], actions=[], default_action="noop2")
        b.ingress(Apply("k"))
        cg = ControlGraph(b.build())
        outcomes = {
            e.hit for p in cg.paths for _i, e in p.apply_events()
        }
        assert outcomes == {False}

    def test_hit_and_miss_paths_for_keyed_table(self, toy_program):
        cg = ControlGraph(toy_program)
        outcomes = {
            (e.table, e.hit) for p in cg.paths for _i, e in p.apply_events()
        }
        assert ("fib", True) in outcomes
        assert ("fib", False) in outcomes


class TestParserFeasibility:
    def build_branching(self):
        """dns and dhcp on exclusive parser branches."""
        b = ProgramBuilder("p")
        b.header_type("u_t", [("port", 16)])
        b.header("udp", "u_t")
        b.header_type("x_t", [("f", 8)])
        b.header("dns", "x_t")
        b.header("dhcp", "x_t")
        b.parser_state(
            "start",
            extracts=["udp"],
            select="udp.port",
            transitions={53: "p_dns", 67: "p_dhcp"},
        )
        b.parser_state("p_dns", extracts=["dns"])
        b.parser_state("p_dhcp", extracts=["dhcp"])
        b.action("d", [Drop()])
        b.table("t_dns", keys=[("dns.f", "exact")], actions=["d"])
        b.table("t_dhcp", keys=[("dhcp.f", "exact")], actions=["d"])
        b.ingress(
            Seq(
                [
                    If(ValidExpr("dns"), Apply("t_dns")),
                    If(ValidExpr("dhcp"), Apply("t_dhcp")),
                ]
            )
        )
        return b.build()

    def test_parser_exclusive_tables(self):
        cg = ControlGraph(self.build_branching())
        assert not cg.may_coexecute("t_dns", "t_dhcp")

    def test_contradictory_validity_paths_pruned(self):
        cg = ControlGraph(self.build_branching())
        for path in cg.paths:
            tables = set(path.tables())
            assert not ({"t_dns", "t_dhcp"} <= tables)

    def test_negated_validity_guard(self):
        b = ProgramBuilder("p")
        b.header_type("h_t", [("f", 8)]).header("h", "h_t")
        b.parser_state("start", extracts=["h"])
        b.action("d", [Drop()])
        b.table("t1", keys=[("h.f", "exact")], actions=["d"])
        b.table("t2", keys=[("h.f", "exact")], actions=["d"])
        b.ingress(
            Seq(
                [
                    If(ValidExpr("h"), Apply("t1")),
                    If(LNot(ValidExpr("h")), Apply("t2")),
                ]
            )
        )
        cg = ControlGraph(b.build())
        assert not cg.may_coexecute("t1", "t2")


class TestFirewallExclusivity:
    def test_dhcp_vs_dns_branch(self, firewall_program):
        """ACL_DHCP can never co-execute with the DNS branch (parser)."""
        cg = ControlGraph(firewall_program)
        for sketch_table in ("Sketch_1", "Sketch_2", "Sketch_Min",
                             "DNS_Drop"):
            assert not cg.may_coexecute("ACL_DHCP", sketch_table)

    def test_acl_udp_not_exclusive_with_dhcp(self, firewall_program):
        """Statically, a packet can be both UDP and DHCP — the 'fake'
        dependency only profiling can dismiss (§3.2)."""
        cg = ControlGraph(firewall_program)
        assert cg.may_coexecute("ACL_UDP", "ACL_DHCP")

    def test_ordered_pairs(self, firewall_program):
        cg = ControlGraph(firewall_program)
        pairs = {
            (a, b)
            for path in cg.paths
            for i, a in enumerate(path.tables())
            for b in path.tables()[i + 1:]
        }
        assert ("IPv4", "ACL_UDP") in pairs
        assert ("ACL_UDP", "IPv4") not in pairs


class TestConjunctionGuards:
    def build(self):
        """dns feature vs a 'not valid(udp) and f == 1' feature."""
        from repro.p4 import BinOp, Const, FieldRef, LAnd

        b = ProgramBuilder("p")
        b.header_type("u_t", [("port", 16)])
        b.header_type("i_t", [("f", 8)])
        b.header("ip", "i_t")
        b.header("udp", "u_t")
        b.parser_state(
            "start",
            extracts=["ip"],
            select="ip.f",
            transitions={17: "p_udp"},
        )
        b.parser_state("p_udp", extracts=["udp"])
        b.action("d", [Drop()])
        b.table("t_udp", keys=[("udp.port", "exact")], actions=["d"])
        b.table("t_probe", keys=[("ip.f", "exact")], actions=["d"])
        b.ingress(
            Seq(
                [
                    If(ValidExpr("udp"), Apply("t_udp")),
                    If(
                        LAnd(
                            LNot(ValidExpr("udp")),
                            BinOp("==", FieldRef("ip", "f"), Const(1)),
                        ),
                        Apply("t_probe"),
                    ),
                ]
            )
        )
        return b.build()

    def test_conjunct_literal_implies_exclusivity(self):
        """``not valid(udp) and ...`` taken implies udp invalid, making
        the two features statically exclusive — the property the
        telemetry program's redirect tables rely on to share a stage."""
        cg = ControlGraph(self.build())
        assert not cg.may_coexecute("t_udp", "t_probe")

    def test_untaken_conjunction_implies_nothing(self):
        """Not taking a conjunction doesn't pin either conjunct, so no
        path is spuriously pruned: t_udp is still reachable both with
        and without the probe guard."""
        cg = ControlGraph(self.build())
        assert "t_udp" in _tables_reached(cg)
        assert "t_probe" in _tables_reached(cg)


class TestMissBranchExclusivity:
    def test_hit_vs_miss_outcomes_tracked(self):
        """A table in another's miss branch can apply to the same packet,
        but only when the first table missed — paths record outcomes."""
        b = ProgramBuilder("p")
        b.header_type("h_t", [("f", 8)]).header("h", "h_t")
        b.parser_state("start", extracts=["h"])
        b.action("d", [Drop()])
        b.table("a", keys=[("h.f", "exact")], actions=["d"])
        b.table("b", keys=[("h.f", "exact")], actions=["d"])
        b.ingress(Apply("a", on_miss=Apply("b")))
        cg = ControlGraph(b.build())
        # They may co-execute (a missed, b applied)...
        assert cg.may_coexecute("a", "b")
        # ...but never with 'a' hitting.
        for path in cg.paths:
            events = {(e.table, e.hit) for _i, e in path.apply_events()}
            if ("b", True) in events or ("b", False) in events:
                assert ("a", True) not in events
