"""Action primitives and compound actions.

An :class:`Action` is a named sequence of primitives, optionally taking
runtime parameters (action data supplied per table entry).  Each primitive
reports the fields it reads and writes and the registers it touches — the
inputs to dependency analysis (§2.1) and to the offload self-containment
check (§3.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import FrozenSet, NamedTuple, Optional, Sequence, Tuple

from repro.exceptions import P4SemanticsError
from repro.p4.expressions import (
    Expr,
    FieldRef,
    fields_read,
    params_used,
    registers_referenced,
)
from repro.p4.types import KeepsPinsLocal, pinned

#: The intrinsic metadata header present in every program.
STANDARD_METADATA = "standard_metadata"

EGRESS_PORT = FieldRef(STANDARD_METADATA, "egress_port")
INGRESS_PORT = FieldRef(STANDARD_METADATA, "ingress_port")
DROP_FLAG = FieldRef(STANDARD_METADATA, "drop_flag")
TO_CONTROLLER = FieldRef(STANDARD_METADATA, "to_controller")
CONTROLLER_REASON = FieldRef(STANDARD_METADATA, "controller_reason")


class Primitive:
    """Base class for action primitives."""

    def reads(self) -> FrozenSet[FieldRef]:
        """Fields this primitive reads."""
        return frozenset()

    def writes(self) -> FrozenSet[FieldRef]:
        """Fields this primitive writes."""
        return frozenset()

    def registers_read(self) -> FrozenSet[str]:
        return frozenset()

    def registers_written(self) -> FrozenSet[str]:
        return frozenset()

    def params(self) -> FrozenSet[str]:
        """Action parameters this primitive references."""
        return frozenset()

    def headers_added(self) -> FrozenSet[str]:
        return frozenset()

    def headers_removed(self) -> FrozenSet[str]:
        return frozenset()


@dataclass(frozen=True)
class ModifyField(Primitive):
    """``modify_field(dst, src)`` — assign an expression to a field."""

    dst: FieldRef
    src: Expr

    def reads(self) -> FrozenSet[FieldRef]:
        return fields_read(self.src)

    def writes(self) -> FrozenSet[FieldRef]:
        return frozenset({self.dst})

    def params(self) -> FrozenSet[str]:
        return params_used(self.src)

    def registers_read(self) -> FrozenSet[str]:
        return registers_referenced(self.src)

    def __str__(self) -> str:
        return f"modify_field({self.dst}, {self.src})"


@dataclass(frozen=True)
class AddToField(Primitive):
    """``add_to_field(dst, src)`` — dst += src with wrap-around."""

    dst: FieldRef
    src: Expr

    def reads(self) -> FrozenSet[FieldRef]:
        return fields_read(self.src) | frozenset({self.dst})

    def writes(self) -> FrozenSet[FieldRef]:
        return frozenset({self.dst})

    def params(self) -> FrozenSet[str]:
        return params_used(self.src)

    def __str__(self) -> str:
        return f"add_to_field({self.dst}, {self.src})"


@dataclass(frozen=True)
class SubtractFromField(Primitive):
    """``subtract_from_field(dst, src)`` — dst -= src with wrap-around."""

    dst: FieldRef
    src: Expr

    def reads(self) -> FrozenSet[FieldRef]:
        return fields_read(self.src) | frozenset({self.dst})

    def writes(self) -> FrozenSet[FieldRef]:
        return frozenset({self.dst})

    def params(self) -> FrozenSet[str]:
        return params_used(self.src)

    def __str__(self) -> str:
        return f"subtract_from_field({self.dst}, {self.src})"


@dataclass(frozen=True)
class Drop(Primitive):
    """Mark the packet for dropping.

    Dropping writes the egress port (to the reserved drop value) — this is
    what makes every pair of dropping tables action-dependent, exactly as the
    paper's example explains for ``IPv4`` and ``ACL_UDP`` (§2.1).
    """

    def writes(self) -> FrozenSet[FieldRef]:
        return frozenset({EGRESS_PORT, DROP_FLAG})

    def __str__(self) -> str:
        return "drop()"


@dataclass(frozen=True)
class SetEgressPort(Primitive):
    """``set_egress_port(port)`` — forward out of a port."""

    port: Expr

    def reads(self) -> FrozenSet[FieldRef]:
        return fields_read(self.port)

    def writes(self) -> FrozenSet[FieldRef]:
        return frozenset({EGRESS_PORT})

    def params(self) -> FrozenSet[str]:
        return params_used(self.port)

    def __str__(self) -> str:
        return f"set_egress_port({self.port})"


@dataclass(frozen=True)
class SendToController(Primitive):
    """Redirect the packet to the controller (CPU port) with a reason code."""

    reason: int = 0

    def writes(self) -> FrozenSet[FieldRef]:
        return frozenset({EGRESS_PORT, TO_CONTROLLER, CONTROLLER_REASON})

    def __str__(self) -> str:
        return f"send_to_controller({self.reason})"


@dataclass(frozen=True)
class RegisterRead(Primitive):
    """``register_read(dst, register, index)``."""

    dst: FieldRef
    register: str
    index: Expr

    def reads(self) -> FrozenSet[FieldRef]:
        return fields_read(self.index)

    def writes(self) -> FrozenSet[FieldRef]:
        return frozenset({self.dst})

    def registers_read(self) -> FrozenSet[str]:
        return frozenset({self.register}) | registers_referenced(self.index)

    def params(self) -> FrozenSet[str]:
        return params_used(self.index)

    def __str__(self) -> str:
        return f"register_read({self.dst}, {self.register}, {self.index})"


@dataclass(frozen=True)
class RegisterWrite(Primitive):
    """``register_write(register, index, value)``."""

    register: str
    index: Expr
    value: Expr

    def reads(self) -> FrozenSet[FieldRef]:
        return fields_read(self.index) | fields_read(self.value)

    def registers_written(self) -> FrozenSet[str]:
        return frozenset({self.register})

    def registers_read(self) -> FrozenSet[str]:
        return registers_referenced(self.index) | registers_referenced(self.value)

    def params(self) -> FrozenSet[str]:
        return params_used(self.index) | params_used(self.value)

    def __str__(self) -> str:
        return (
            f"register_write({self.register}, {self.index}, {self.value})"
        )


@dataclass(frozen=True)
class HashFields(Primitive):
    """``hash(dst, algorithm, inputs, modulo)``.

    ``modulo`` is typically ``RegisterSize(reg)`` so that index computation
    follows register resizing (see :class:`repro.p4.expressions.RegisterSize`).
    """

    dst: FieldRef
    algorithm: str
    inputs: Tuple[FieldRef, ...]
    modulo: Expr

    def __post_init__(self) -> None:
        if not self.inputs:
            raise P4SemanticsError("hash requires at least one input field")

    def reads(self) -> FrozenSet[FieldRef]:
        return frozenset(self.inputs) | fields_read(self.modulo)

    def writes(self) -> FrozenSet[FieldRef]:
        return frozenset({self.dst})

    def registers_read(self) -> FrozenSet[str]:
        return registers_referenced(self.modulo)

    def params(self) -> FrozenSet[str]:
        return params_used(self.modulo)

    def __str__(self) -> str:
        ins = ", ".join(str(i) for i in self.inputs)
        return f"hash({self.dst}, {self.algorithm}, [{ins}], {self.modulo})"


@dataclass(frozen=True)
class MinOf(Primitive):
    """``min(dst, left, right)`` — RMT stateful ALUs provide min/max.

    Used by Count-Min Sketches to combine row estimates (the paper's
    ``Sketch_Min`` table).
    """

    dst: FieldRef
    left: Expr
    right: Expr

    def reads(self) -> FrozenSet[FieldRef]:
        return fields_read(self.left) | fields_read(self.right)

    def writes(self) -> FrozenSet[FieldRef]:
        return frozenset({self.dst})

    def params(self) -> FrozenSet[str]:
        return params_used(self.left) | params_used(self.right)

    def __str__(self) -> str:
        return f"min({self.dst}, {self.left}, {self.right})"


@dataclass(frozen=True)
class AddHeader(Primitive):
    """``add_header(h)`` — make a header instance valid (zero-filled)."""

    header: str

    def headers_added(self) -> FrozenSet[str]:
        return frozenset({self.header})

    def __str__(self) -> str:
        return f"add_header({self.header})"


@dataclass(frozen=True)
class RemoveHeader(Primitive):
    """``remove_header(h)`` — make a header instance invalid."""

    header: str

    def headers_removed(self) -> FrozenSet[str]:
        return frozenset({self.header})

    def __str__(self) -> str:
        return f"remove_header({self.header})"


@dataclass(frozen=True)
class NoOp(Primitive):
    """Do nothing (explicit no-op action body)."""

    def __str__(self) -> str:
        return "no_op()"


@dataclass(frozen=True)
class Action(KeepsPinsLocal):
    """A named action: parameter list + primitive sequence."""

    name: str
    parameters: Tuple[str, ...] = ()
    primitives: Tuple[Primitive, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "parameters", tuple(self.parameters))
        object.__setattr__(self, "primitives", tuple(self.primitives))
        if len(set(self.parameters)) != len(self.parameters):
            raise P4SemanticsError(
                f"action {self.name!r} has duplicate parameters"
            )
        undeclared = self.params_referenced() - set(self.parameters)
        if undeclared:
            raise P4SemanticsError(
                f"action {self.name!r} references undeclared parameters "
                f"{sorted(undeclared)}"
            )

    def params_referenced(self) -> FrozenSet[str]:
        out: FrozenSet[str] = frozenset()
        for prim in self.primitives:
            out |= prim.params()
        return out

    # What the primitives read and write is unioned once per value and
    # pinned on it (a local pin, DESIGN.md §16).

    def reads(self) -> FrozenSet[FieldRef]:
        return pinned(self, "_access", _union_access).reads

    def writes(self) -> FrozenSet[FieldRef]:
        return pinned(self, "_access", _union_access).writes

    def registers_read(self) -> FrozenSet[str]:
        return pinned(self, "_access", _union_access).registers_read

    def registers_written(self) -> FrozenSet[str]:
        return pinned(self, "_access", _union_access).registers_written

    def headers_added(self) -> FrozenSet[str]:
        out: FrozenSet[str] = frozenset()
        for prim in self.primitives:
            out |= prim.headers_added()
        return out

    def headers_removed(self) -> FrozenSet[str]:
        out: FrozenSet[str] = frozenset()
        for prim in self.primitives:
            out |= prim.headers_removed()
        return out

    def with_extra_primitives(self, extra: Sequence[Primitive],
                              new_name: Optional[str] = None) -> "Action":
        """Return a copy with ``extra`` primitives appended (used by the
        profiler's instrumentation, §3.1)."""
        return Action(
            name=new_name or self.name,
            parameters=self.parameters,
            primitives=self.primitives + tuple(extra),
        )

    def __str__(self) -> str:
        params = ", ".join(self.parameters)
        body = "; ".join(str(p) for p in self.primitives)
        return f"action {self.name}({params}) {{ {body} }}"


class _Access(NamedTuple):
    """An action's field and register accesses (:meth:`Action.reads` and
    its siblings)."""

    reads: FrozenSet[FieldRef]
    writes: FrozenSet[FieldRef]
    registers_read: FrozenSet[str]
    registers_written: FrozenSet[str]


def _union_access(action: Action) -> _Access:
    prims = action.primitives
    return _Access(
        frozenset().union(*(prim.reads() for prim in prims)),
        frozenset().union(*(prim.writes() for prim in prims)),
        frozenset().union(*(prim.registers_read() for prim in prims)),
        frozenset().union(*(prim.registers_written() for prim in prims)),
    )
