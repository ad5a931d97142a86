"""Expression evaluation and action execution against a packet's PHV.

The PHV (packet header vector) is the per-packet working set: parsed header
fields plus metadata.  Reads of invalid headers yield 0 (the bmv2
convention); writes to fields truncate to the field width.

Anything that mutates fields goes through :meth:`Phv.write` /
:meth:`Phv.set_valid` / :meth:`Phv.set_invalid` — never poke
``Phv.headers`` directly.  Register state lives in
:class:`~repro.sim.state.SwitchState`, outside the PHV.
"""

from __future__ import annotations

from typing import Dict, Mapping, Set, Tuple

from repro.exceptions import SimulationError
from repro.p4.actions import (
    Action,
    AddHeader,
    AddToField,
    Drop,
    HashFields,
    MinOf,
    ModifyField,
    NoOp,
    RegisterRead,
    RegisterWrite,
    RemoveHeader,
    SendToController,
    SetEgressPort,
    SubtractFromField,
)
from repro.p4.expressions import (
    BinOp,
    Const,
    Expr,
    FieldRef,
    LAnd,
    LNot,
    LOr,
    ParamRef,
    RegisterSize,
    ValidExpr,
)
from repro.p4.program import Program
from repro.p4.types import CPU_PORT, DROP_PORT, truncate, wrap_add, wrap_sub
from repro.sim.hashing import compute_hash
from repro.sim.state import SwitchState


class Phv:
    """Per-packet header/metadata values and validity."""

    __slots__ = ("_program", "headers", "valid")

    def __init__(
        self,
        program: Program,
        headers: Dict[str, Dict[str, int]],
        valid: Set[str],
    ):
        self._program = program
        self.headers = headers
        self.valid = valid
        # Metadata instances are always valid and start zeroed.
        for inst in program.metadata_headers():
            self.valid.add(inst.name)
            self.headers.setdefault(inst.name, {})

    def is_valid(self, header: str) -> bool:
        return header in self.valid

    def read(self, ref: FieldRef) -> int:
        """Read a field; invalid-header reads yield 0 (bmv2 convention)."""
        if ref.header not in self.valid:
            return 0
        return self.headers.get(ref.header, {}).get(ref.field, 0)

    def write(self, ref: FieldRef, value: int) -> None:
        width = self._program.field_width(ref)
        self.headers.setdefault(ref.header, {})[ref.field] = truncate(
            value, width
        )

    def set_valid(self, header: str) -> None:
        self.valid.add(header)
        htype = self._program.header_type_of(header)
        self.headers[header] = {name: 0 for name in htype.field_names()}

    def set_invalid(self, header: str) -> None:
        self.valid.discard(header)
        self.headers.pop(header, None)


def eval_expr(
    expr: Expr,
    phv: Phv,
    state: SwitchState,
    args: Mapping[str, int],
) -> int:
    """Evaluate an expression to an unsigned integer (booleans are 0/1)."""
    if isinstance(expr, FieldRef):
        return phv.read(expr)
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, ParamRef):
        if expr.name not in args:
            raise SimulationError(
                f"action parameter {expr.name!r} has no bound value"
            )
        return args[expr.name]
    if isinstance(expr, RegisterSize):
        return state.register_size(expr.register)
    if isinstance(expr, ValidExpr):
        return 1 if phv.is_valid(expr.header) else 0
    if isinstance(expr, BinOp):
        left = eval_expr(expr.left, phv, state, args)
        right = eval_expr(expr.right, phv, state, args)
        if expr.op == "==":
            return 1 if left == right else 0
        if expr.op == "!=":
            return 1 if left != right else 0
        if expr.op == "<":
            return 1 if left < right else 0
        if expr.op == "<=":
            return 1 if left <= right else 0
        if expr.op == ">":
            return 1 if left > right else 0
        if expr.op == ">=":
            return 1 if left >= right else 0
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            # May go negative; wrap-around is applied when the result is
            # written to a field (truncate masks two's-complement style).
            return left - right
        if expr.op == "&":
            return left & right
        if expr.op == "|":
            return left | right
        if expr.op == "^":
            return left ^ right
        raise SimulationError(f"unknown operator {expr.op!r}")
    if isinstance(expr, LNot):
        return 0 if eval_expr(expr.operand, phv, state, args) else 1
    if isinstance(expr, LAnd):
        if not eval_expr(expr.left, phv, state, args):
            return 0
        return 1 if eval_expr(expr.right, phv, state, args) else 0
    if isinstance(expr, LOr):
        if eval_expr(expr.left, phv, state, args):
            return 1
        return 1 if eval_expr(expr.right, phv, state, args) else 0
    raise SimulationError(f"unknown expression node {expr!r}")


def execute_action(
    program: Program,
    action: Action,
    arg_values: Tuple[int, ...],
    phv: Phv,
    state: SwitchState,
) -> None:
    """Run every primitive of an action against the PHV and switch state."""
    if len(arg_values) != len(action.parameters):
        raise SimulationError(
            f"action {action.name!r} takes {len(action.parameters)} args, "
            f"got {len(arg_values)}"
        )
    args = dict(zip(action.parameters, arg_values))
    for prim in action.primitives:
        _execute_primitive(program, prim, phv, state, args)


def _execute_primitive(
    program: Program,
    prim,
    phv: Phv,
    state: SwitchState,
    args: Mapping[str, int],
) -> None:
    if isinstance(prim, ModifyField):
        phv.write(prim.dst, eval_expr(prim.src, phv, state, args))
    elif isinstance(prim, AddToField):
        width = program.field_width(prim.dst)
        phv.write(
            prim.dst,
            wrap_add(
                phv.read(prim.dst),
                eval_expr(prim.src, phv, state, args),
                width,
            ),
        )
    elif isinstance(prim, SubtractFromField):
        width = program.field_width(prim.dst)
        phv.write(
            prim.dst,
            wrap_sub(
                phv.read(prim.dst),
                eval_expr(prim.src, phv, state, args),
                width,
            ),
        )
    elif isinstance(prim, Drop):
        phv.write(FieldRef("standard_metadata", "egress_port"), DROP_PORT)
        phv.write(FieldRef("standard_metadata", "drop_flag"), 1)
    elif isinstance(prim, SetEgressPort):
        phv.write(
            FieldRef("standard_metadata", "egress_port"),
            eval_expr(prim.port, phv, state, args),
        )
    elif isinstance(prim, SendToController):
        phv.write(FieldRef("standard_metadata", "egress_port"), CPU_PORT)
        phv.write(FieldRef("standard_metadata", "to_controller"), 1)
        phv.write(
            FieldRef("standard_metadata", "controller_reason"), prim.reason
        )
    elif isinstance(prim, RegisterRead):
        index = eval_expr(prim.index, phv, state, args)
        phv.write(prim.dst, state.read(prim.register, index))
    elif isinstance(prim, RegisterWrite):
        index = eval_expr(prim.index, phv, state, args)
        value = eval_expr(prim.value, phv, state, args)
        state.write(prim.register, index, value)
    elif isinstance(prim, MinOf):
        left = eval_expr(prim.left, phv, state, args)
        right = eval_expr(prim.right, phv, state, args)
        phv.write(prim.dst, min(left, right))
    elif isinstance(prim, HashFields):
        inputs = [
            (phv.read(ref), program.field_width(ref)) for ref in prim.inputs
        ]
        modulo = eval_expr(prim.modulo, phv, state, args)
        phv.write(prim.dst, compute_hash(prim.algorithm, inputs, modulo))
    elif isinstance(prim, AddHeader):
        phv.set_valid(prim.header)
    elif isinstance(prim, RemoveHeader):
        phv.set_invalid(prim.header)
    elif isinstance(prim, NoOp):
        pass
    else:
        raise SimulationError(f"unknown primitive {prim!r}")
