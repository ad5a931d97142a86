"""Unit tests for Program validation, cloning, and derived programs."""

from dataclasses import FrozenInstanceError

import pytest

from repro.exceptions import P4ValidationError
from repro.p4 import (
    Apply,
    Drop,
    FieldRef,
    If,
    ModifyField,
    ProgramBuilder,
    RegisterRead,
    Seq,
    ValidExpr,
    Const,
)
from tests.conftest import build_toy_program


class TestValidation:
    def test_toy_program_validates(self):
        build_toy_program().validate()

    def test_unknown_table_in_control(self):
        b = ProgramBuilder("p")
        b.header_type("h_t", [("f", 8)]).header("h", "h_t")
        b.ingress(Apply("ghost"))
        with pytest.raises(P4ValidationError):
            b.build()

    def test_table_applied_twice_rejected(self):
        b = ProgramBuilder("p")
        b.header_type("h_t", [("f", 8)]).header("h", "h_t")
        b.table("t", keys=[("h.f", "exact")], actions=[])
        b.ingress(Seq([Apply("t"), Apply("t")]))
        with pytest.raises(P4ValidationError):
            b.build()

    def test_action_with_unknown_field(self):
        b = ProgramBuilder("p")
        b.header_type("h_t", [("f", 8)]).header("h", "h_t")
        b.action("bad", [ModifyField(FieldRef("h", "ghost"), Const(1))])
        with pytest.raises(P4ValidationError):
            b.build()

    def test_action_with_unknown_register(self):
        b = ProgramBuilder("p")
        b.header_type("h_t", [("f", 8)]).header("h", "h_t")
        b.action(
            "bad", [RegisterRead(FieldRef("h", "f"), "ghost", Const(0))]
        )
        with pytest.raises(P4ValidationError):
            b.build()

    def test_table_with_unknown_action(self):
        b = ProgramBuilder("p")
        b.header_type("h_t", [("f", 8)]).header("h", "h_t")
        b.table("t", keys=[("h.f", "exact")], actions=["ghost"])
        with pytest.raises(P4ValidationError):
            b.build()

    def test_default_action_arity_checked(self):
        b = ProgramBuilder("p")
        b.header_type("h_t", [("f", 8)]).header("h", "h_t")
        from repro.p4 import ParamRef

        b.action("needs_arg", [ModifyField(FieldRef("h", "f"), ParamRef("v"))],
                 parameters=["v"])
        b.table("t", keys=[("h.f", "exact")], actions=["needs_arg"],
                default_action="needs_arg", default_action_args=[])
        with pytest.raises(P4ValidationError):
            b.build()

    def test_condition_with_unknown_header(self):
        b = ProgramBuilder("p")
        b.header_type("h_t", [("f", 8)]).header("h", "h_t")
        b.table("t", keys=[("h.f", "exact")], actions=[])
        b.ingress(If(ValidExpr("ghost"), Apply("t")))
        with pytest.raises(P4ValidationError):
            b.build()

    def test_parser_extracting_metadata_rejected(self):
        b = ProgramBuilder("p")
        b.metadata("m", [("f", 8)])
        b.parser_state("start", extracts=["m"])
        with pytest.raises(P4ValidationError):
            b.build()


class TestIntrinsics:
    def test_standard_metadata_always_present(self, toy_program):
        assert "standard_metadata" in toy_program.headers
        assert toy_program.headers["standard_metadata"].metadata

    def test_noaction_always_present(self, toy_program):
        assert "NoAction" in toy_program.actions


class TestClone:
    def test_clone_is_independent(self, toy_program):
        """Neither side can be written (programs are frozen:
        tests/test_program_values), and a program derived from either
        never shows on the other."""
        copied = toy_program.clone()
        for program in (copied, toy_program):
            with pytest.raises(TypeError):
                program.tables["fib"] = program.tables["fib"].resized(8)
            with pytest.raises(TypeError):
                del program.actions["fwd"]
            with pytest.raises(FrozenInstanceError):
                program.ingress = Seq([])
        derived = copied.with_table_size("fib", 8).with_ingress(Seq([]))
        assert derived.tables["fib"].size == 8
        assert toy_program.tables["fib"].size == 64
        assert toy_program.ingress_tables() == ["fib", "acl"]
        toy_program.with_table_size("acl", 2).with_ingress(Apply("fib"))
        assert copied.tables["acl"].size != 2
        assert copied.ingress_tables() == ["fib", "acl"]
        assert copied == toy_program

    def test_clone_rename(self, toy_program):
        assert toy_program.clone("other").name == "other"


class TestDerivedPrograms:
    def test_with_table_size(self, toy_program):
        resized = toy_program.with_table_size("fib", 32)
        assert resized.tables["fib"].size == 32
        assert toy_program.tables["fib"].size == 64

    def test_with_table_size_unknown(self, toy_program):
        with pytest.raises(P4ValidationError):
            toy_program.with_table_size("ghost", 32)

    def test_with_register_size_unknown(self, toy_program):
        with pytest.raises(P4ValidationError):
            toy_program.with_register_size("ghost", 32)

    def test_with_ingress(self, toy_program):
        reduced = toy_program.with_ingress(Apply("fib"))
        assert reduced.tables_in_control_order() == ["fib"]
        assert toy_program.tables_in_control_order() == ["fib", "acl"]


class TestQueries:
    def test_field_width(self, toy_program):
        assert toy_program.field_width(FieldRef("ipv4", "dstAddr")) == 32
        assert toy_program.field_width(FieldRef("udp", "dstPort")) == 16

    def test_field_width_unknown_header(self, toy_program):
        with pytest.raises(P4ValidationError):
            toy_program.field_width(FieldRef("ghost", "x"))

    def test_packet_headers_exclude_metadata(self, toy_program):
        names = [h.name for h in toy_program.packet_headers()]
        assert "standard_metadata" not in names
        assert "ipv4" in names

    def test_tables_accessing_register(self):
        from repro.programs import example_firewall

        program = example_firewall.build_program()
        assert program.tables_accessing_register("dns_cms_row0") == [
            "Sketch_1"
        ]
        assert program.tables_accessing_register("dns_cms_row1") == [
            "Sketch_2"
        ]
