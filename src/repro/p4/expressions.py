"""Expression nodes for the P4 intermediate representation.

Expressions appear in three places:

* action primitive operands (sources of ``modify_field`` etc.),
* ``if`` conditions in the ingress control flow,
* hash/index computations for register access.

Every expression node knows which fields it *reads* — this is the raw
material for dependency analysis (§2.1 of the paper: a table or control
statement depends on another table if it reads a field the latter modifies).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Union

from repro.exceptions import P4SemanticsError


@dataclass(frozen=True)
class FieldRef:
    """A reference to ``header.field``.

    ``header`` names a header *instance* (packet header or metadata);
    ``field`` names a field of its header type.
    """

    header: str
    field: str

    @property
    def path(self) -> str:
        return f"{self.header}.{self.field}"

    def __str__(self) -> str:
        return self.path

    @staticmethod
    def parse(path: str) -> "FieldRef":
        """Parse ``"header.field"`` into a :class:`FieldRef`."""
        if path.count(".") != 1:
            raise P4SemanticsError(f"malformed field path {path!r}")
        header, fieldname = path.split(".")
        if not header or not fieldname:
            raise P4SemanticsError(f"malformed field path {path!r}")
        return FieldRef(header, fieldname)


@dataclass(frozen=True)
class Const:
    """A literal unsigned integer."""

    value: int

    def __post_init__(self) -> None:
        if self.value < 0:
            raise P4SemanticsError(
                f"P4 constants are unsigned, got {self.value}"
            )

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class ParamRef:
    """A reference to an action parameter (runtime action data).

    The value is supplied per table entry by the runtime configuration.
    """

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class RegisterSize:
    """Resolves to the *current* number of cells of a register array.

    Hash computations use this as their modulus so that resizing a register
    (phase 3, §3.3) automatically changes the index distribution — exactly
    the mechanism by which shrinking a Count-Min Sketch causes extra
    collisions in the paper's running example.
    """

    register: str

    def __str__(self) -> str:
        return f"size({self.register})"


@dataclass(frozen=True)
class ValidExpr:
    """``valid(header)`` — true when the header instance was parsed."""

    header: str

    def __str__(self) -> str:
        return f"valid({self.header})"


#: Operand types usable inside action primitives and conditions.
Operand = Union[FieldRef, Const, ParamRef, RegisterSize]

COMPARISON_OPS = ("==", "!=", "<", "<=", ">", ">=")
ARITHMETIC_OPS = ("+", "-", "&", "|", "^")


@dataclass(frozen=True)
class BinOp:
    """A binary operation over operands or nested expressions."""

    op: str
    left: "Expr"
    right: "Expr"

    def __post_init__(self) -> None:
        if self.op not in COMPARISON_OPS + ARITHMETIC_OPS:
            raise P4SemanticsError(f"unknown operator {self.op!r}")

    @property
    def is_comparison(self) -> bool:
        return self.op in COMPARISON_OPS

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class LNot:
    """Logical negation of a boolean expression."""

    operand: "Expr"

    def __str__(self) -> str:
        return f"not {self.operand}"


@dataclass(frozen=True)
class LAnd:
    """Logical conjunction."""

    left: "Expr"
    right: "Expr"

    def __str__(self) -> str:
        return f"({self.left} and {self.right})"


@dataclass(frozen=True)
class LOr:
    """Logical disjunction."""

    left: "Expr"
    right: "Expr"

    def __str__(self) -> str:
        return f"({self.left} or {self.right})"


Expr = Union[FieldRef, Const, ParamRef, RegisterSize, ValidExpr, BinOp,
             LNot, LAnd, LOr]


def fields_read(expr: Expr) -> FrozenSet[FieldRef]:
    """All field references an expression reads."""
    if isinstance(expr, FieldRef):
        return frozenset({expr})
    if isinstance(expr, (Const, ParamRef, RegisterSize, ValidExpr)):
        return frozenset()
    if isinstance(expr, BinOp):
        return fields_read(expr.left) | fields_read(expr.right)
    if isinstance(expr, LNot):
        return fields_read(expr.operand)
    if isinstance(expr, (LAnd, LOr)):
        return fields_read(expr.left) | fields_read(expr.right)
    raise P4SemanticsError(f"unknown expression node {expr!r}")


def headers_tested_valid(expr: Expr) -> FrozenSet[str]:
    """All header names whose validity the expression tests."""
    if isinstance(expr, ValidExpr):
        return frozenset({expr.header})
    if isinstance(expr, BinOp):
        return headers_tested_valid(expr.left) | headers_tested_valid(expr.right)
    if isinstance(expr, LNot):
        return headers_tested_valid(expr.operand)
    if isinstance(expr, (LAnd, LOr)):
        return headers_tested_valid(expr.left) | headers_tested_valid(expr.right)
    return frozenset()


def params_used(expr: Expr) -> FrozenSet[str]:
    """All action parameter names an expression references."""
    if isinstance(expr, ParamRef):
        return frozenset({expr.name})
    if isinstance(expr, BinOp):
        return params_used(expr.left) | params_used(expr.right)
    if isinstance(expr, LNot):
        return params_used(expr.operand)
    if isinstance(expr, (LAnd, LOr)):
        return params_used(expr.left) | params_used(expr.right)
    return frozenset()


def registers_referenced(expr: Expr) -> FrozenSet[str]:
    """All register names an expression references (via RegisterSize)."""
    if isinstance(expr, RegisterSize):
        return frozenset({expr.register})
    if isinstance(expr, BinOp):
        return registers_referenced(expr.left) | registers_referenced(expr.right)
    if isinstance(expr, LNot):
        return registers_referenced(expr.operand)
    if isinstance(expr, (LAnd, LOr)):
        return registers_referenced(expr.left) | registers_referenced(expr.right)
    return frozenset()
