"""Unit tests for repro.p4.expressions."""

import pytest

from repro.exceptions import P4SemanticsError
from repro.p4.expressions import (
    BinOp,
    Const,
    FieldRef,
    LAnd,
    LNot,
    LOr,
    ParamRef,
    RegisterSize,
    ValidExpr,
    fields_read,
    headers_tested_valid,
    params_used,
    registers_referenced,
)


class TestFieldRef:
    def test_parse(self):
        ref = FieldRef.parse("ipv4.dstAddr")
        assert ref == FieldRef("ipv4", "dstAddr")
        assert ref.path == "ipv4.dstAddr"

    def test_parse_rejects_no_dot(self):
        with pytest.raises(P4SemanticsError):
            FieldRef.parse("ipv4")

    def test_parse_rejects_two_dots(self):
        with pytest.raises(P4SemanticsError):
            FieldRef.parse("a.b.c")

    def test_parse_rejects_empty_component(self):
        with pytest.raises(P4SemanticsError):
            FieldRef.parse(".field")

    def test_hashable_and_equal(self):
        assert {FieldRef("a", "b")} == {FieldRef.parse("a.b")}


class TestConst:
    def test_negative_rejected(self):
        with pytest.raises(P4SemanticsError):
            Const(-1)

    def test_str(self):
        assert str(Const(7)) == "7"


class TestBinOp:
    def test_unknown_op_rejected(self):
        with pytest.raises(P4SemanticsError):
            BinOp("**", Const(1), Const(2))

    def test_is_comparison(self):
        assert BinOp(">=", Const(1), Const(2)).is_comparison
        assert not BinOp("+", Const(1), Const(2)).is_comparison


class TestFieldsRead:
    def test_field_ref(self):
        assert fields_read(FieldRef("a", "b")) == {FieldRef("a", "b")}

    def test_leaves_read_nothing(self):
        assert fields_read(Const(1)) == frozenset()
        assert fields_read(ParamRef("p")) == frozenset()
        assert fields_read(RegisterSize("r")) == frozenset()
        assert fields_read(ValidExpr("h")) == frozenset()

    def test_nested(self):
        expr = LAnd(
            BinOp(">=", FieldRef("m", "count"), Const(128)),
            LOr(ValidExpr("dns"), LNot(FieldRef("m", "flag"))),
        )
        assert fields_read(expr) == {
            FieldRef("m", "count"),
            FieldRef("m", "flag"),
        }


class TestHeadersTestedValid:
    def test_valid_expr(self):
        assert headers_tested_valid(ValidExpr("udp")) == {"udp"}

    def test_negated(self):
        assert headers_tested_valid(LNot(ValidExpr("udp"))) == {"udp"}

    def test_combined(self):
        expr = LAnd(ValidExpr("a"), LOr(ValidExpr("b"), Const(1)))
        assert headers_tested_valid(expr) == {"a", "b"}


class TestParamsUsed:
    def test_param(self):
        assert params_used(ParamRef("port")) == {"port"}

    def test_nested(self):
        expr = BinOp("+", ParamRef("a"), BinOp("-", ParamRef("b"), Const(1)))
        assert params_used(expr) == {"a", "b"}


class TestRegistersReferenced:
    def test_register_size(self):
        assert registers_referenced(RegisterSize("cms")) == {"cms"}

    def test_nested(self):
        expr = BinOp("&", RegisterSize("r1"), LNot(RegisterSize("r2")))
        assert registers_referenced(expr) == {"r1", "r2"}
