"""Tests for table-dependency-graph construction (the Fig. 1 machinery)."""

import pytest

from repro.analysis.dependencies import (
    DependencyKind,
    build_dependency_graph,
    figure_edges,
)
from repro.p4 import (
    Apply,
    Const,
    Drop,
    FieldRef,
    If,
    ModifyField,
    ProgramBuilder,
    RegisterWrite,
    Seq,
    SetEgressPort,
    ParamRef,
    ValidExpr,
    BinOp,
)


def two_table_program(action_a, action_b, shared_register=False,
                      key_b="h.f2"):
    b = ProgramBuilder("p")
    b.header_type("h_t", [("f1", 16), ("f2", 16)])
    b.header("h", "h_t")
    b.metadata("m", [("x", 16), ("y", 16)])
    if shared_register:
        b.register("reg", width=8, size=4)
    b.action("act_a", action_a)
    b.action("act_b", action_b)
    b.table("ta", keys=[("h.f1", "exact")], actions=["act_a"])
    b.table("tb", keys=[(key_b, "exact")], actions=["act_b"])
    b.ingress(Seq([Apply("ta"), Apply("tb")]))
    return b.build()


class TestDependencyKinds:
    def test_match_dependency_via_key(self):
        """tb matches on a field ta's action writes -> MATCH."""
        program = two_table_program(
            [ModifyField(FieldRef("h", "f2"), Const(1))],
            [Drop()],
        )
        graph = build_dependency_graph(program)
        dep = graph.between("ta", "tb")
        assert dep is not None and dep.kind is DependencyKind.MATCH

    def test_action_dependency_write_write(self):
        """Both actions write the egress port -> ACTION (the paper's two
        drop actions)."""
        program = two_table_program([Drop()], [Drop()])
        dep = build_dependency_graph(program).between("ta", "tb")
        assert dep is not None and dep.kind is DependencyKind.ACTION

    def test_action_dependency_read_after_write(self):
        program = two_table_program(
            [ModifyField(FieldRef("m", "x"), Const(1))],
            [ModifyField(FieldRef("m", "y"), FieldRef("m", "x"))],
        )
        dep = build_dependency_graph(program).between("ta", "tb")
        assert dep is not None and dep.kind is DependencyKind.ACTION

    def test_shared_register_is_action_dependency(self):
        program = two_table_program(
            [RegisterWrite("reg", Const(0), Const(1))],
            [RegisterWrite("reg", Const(1), Const(2))],
            shared_register=True,
        )
        dep = build_dependency_graph(program).between("ta", "tb")
        assert dep is not None and dep.kind is DependencyKind.ACTION
        assert any("reg" in c.registers for c in dep.causes)

    def test_reverse_dependency_later_writer(self):
        """tb writes the field ta matches on -> REVERSE (anti-dep):
        same-stage legal, earlier-stage not."""
        program = two_table_program(
            [Drop()],
            [ModifyField(FieldRef("h", "f1"), Const(9))],
        )
        dep = build_dependency_graph(program).between("ta", "tb")
        assert dep is not None and dep.kind is DependencyKind.REVERSE
        assert dep.min_stage_separation == 0
        assert dep.kind.aligns_to_first_stage

    def test_reverse_dependency_constrains_placement(self):
        """The writer must not land in an earlier stage than a reader
        whose memory pushed it deep into the pipeline."""
        from repro.target.compiler import compile_program
        from repro.target.model import TargetModel

        tiny = TargetModel(
            name="tiny",
            num_stages=8,
            sram_blocks_per_stage=4,
            tcam_blocks_per_stage=2,
            sram_block_bytes=64,
            tcam_block_bytes=32,
            max_tables_per_stage=2,
        )
        b = ProgramBuilder("p")
        b.header_type("h_t", [("f1", 16), ("f2", 16)])
        b.header("h", "h_t")
        b.action("big_act", [Drop()])
        b.action("writer", [ModifyField(FieldRef("h", "f1"), Const(1))])
        # 'reader' matches f1 and needs two stages of memory (128 x 4B).
        b.table("reader", keys=[("h.f1", "exact")], actions=["big_act"],
                size=128)
        b.table("writer_t", keys=[("h.f2", "exact")], actions=["writer"],
                size=2)
        b.ingress(Seq([Apply("reader"), Apply("writer_t")]))
        result = compile_program(b.build(), tiny)
        placements = result.allocation.placements
        assert (
            placements["writer_t"].first_stage
            >= placements["reader"].first_stage
        )

    def test_independent_tables_have_no_edge(self):
        program = two_table_program(
            [ModifyField(FieldRef("m", "x"), Const(1))],
            [ModifyField(FieldRef("m", "y"), Const(2))],
        )
        assert build_dependency_graph(program).between("ta", "tb") is None

    def test_successor_dependency(self):
        b = ProgramBuilder("p")
        b.header_type("h_t", [("f", 16)]).header("h", "h_t")
        b.action("a1", [ModifyField(FieldRef("h", "f"), Const(1))])
        b.action("a2", [])
        b.table("ta", keys=[("h.f", "exact")], actions=["a1"])
        b.table("tb", keys=[], actions=[], default_action="a2")
        b.ingress(Apply("ta", on_miss=Apply("tb")))
        dep = build_dependency_graph(b.build()).between("ta", "tb")
        assert dep is not None and dep.kind is DependencyKind.SUCCESSOR
        assert dep.min_stage_separation == 0

    def test_match_dependency_via_guard_condition(self):
        """A condition reading ta's output guards tb -> MATCH (the paper's
        Sketch_Min -> condition -> DNS_Drop chain)."""
        b = ProgramBuilder("p")
        b.header_type("h_t", [("f", 16)]).header("h", "h_t")
        b.metadata("m", [("count", 32)])
        b.action("bump", [ModifyField(FieldRef("m", "count"), Const(1))])
        b.action("d", [Drop()])
        b.table("ta", keys=[("h.f", "exact")], actions=["bump"])
        b.table("tb", keys=[("h.f", "exact")], actions=["d"])
        b.ingress(
            Seq(
                [
                    Apply("ta"),
                    If(
                        BinOp(">=", FieldRef("m", "count"), Const(1)),
                        Apply("tb"),
                    ),
                ]
            )
        )
        dep = build_dependency_graph(b.build()).between("ta", "tb")
        assert dep is not None and dep.kind is DependencyKind.MATCH

    def test_exclusive_branches_no_action_dependency(self):
        """Tables in a then/else pair never co-execute -> no dependency
        despite both dropping."""
        b = ProgramBuilder("p")
        b.header_type("h_t", [("f", 16)]).header("h", "h_t")
        b.parser_state("start", extracts=["h"])
        b.action("d1", [Drop()])
        b.action("d2", [Drop()])
        b.table("ta", keys=[("h.f", "exact")], actions=["d1"])
        b.table("tb", keys=[("h.f", "exact")], actions=["d2"])
        b.ingress(
            If(ValidExpr("h"), Apply("ta"), Apply("tb"))
        )
        # valid(h) is always true here (parser always extracts), so only
        # the ta branch is feasible; tb is unreachable -> no dep.
        assert build_dependency_graph(b.build()).between("ta", "tb") is None


class TestFirewallGraph:
    """Fig. 1's structure, recovered from the real Ex. 1 program."""

    @pytest.fixture(scope="class")
    def graph(self, firewall_program):
        return build_dependency_graph(firewall_program)

    def test_acl_chain_action_deps(self, graph):
        assert graph.between("IPv4", "ACL_UDP").kind is DependencyKind.ACTION
        assert graph.between("IPv4", "ACL_DHCP").kind is DependencyKind.ACTION
        assert (
            graph.between("ACL_UDP", "ACL_DHCP").kind is DependencyKind.ACTION
        )

    def test_sketch_match_deps(self, graph):
        assert (
            graph.between("Sketch_1", "Sketch_Min").kind
            is DependencyKind.ACTION
        )
        assert (
            graph.between("Sketch_2", "Sketch_Min").kind
            is DependencyKind.ACTION
        )

    def test_condition_match_dep_to_dns_drop(self, graph):
        assert (
            graph.between("Sketch_Min", "DNS_Drop").kind
            is DependencyKind.MATCH
        )

    def test_parser_exclusive_pairs_absent(self, graph):
        assert graph.between("ACL_DHCP", "Sketch_1") is None
        assert graph.between("ACL_DHCP", "DNS_Drop") is None

    def test_action_cause_names_conflicting_actions(self, graph):
        dep = graph.between("ACL_UDP", "ACL_DHCP")
        pairs = {(c.src_action, c.dst_action) for c in dep.causes}
        assert ("acl_udp_drop", "acl_dhcp_drop") in pairs

    def test_critical_dependencies_nonempty(self, graph):
        critical = graph.critical_dependencies()
        assert critical
        edges = {(d.src, d.dst) for d in critical}
        assert ("ACL_UDP", "ACL_DHCP") in edges

    def test_longest_path(self, graph):
        weight, _path = graph.longest_path()
        assert weight >= 2


class TestFigureEdges:
    def test_firewall_figure_contains_condition_node(self, firewall_program):
        edges = figure_edges(firewall_program)
        kinds = {(e.src, e.dst, e.kind) for e in edges}
        cond = "(dns_cms_meta.count >= 128)"
        assert ("Sketch_Min", cond, "match") in kinds
        assert (cond, "DNS_Drop", "control") in kinds
        assert ("IPv4", "ACL_UDP", "action") in kinds

    def test_paths_are_enumerated_once(self, firewall_program, monkeypatch):
        from repro.analysis.control_graph import ControlGraph

        built, init = [], ControlGraph.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ControlGraph, "__init__", counting)
        figure_edges(firewall_program)
        assert len(built) == 1
