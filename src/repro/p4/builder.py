"""Fluent builder for P4 programs.

The fuzz generator and the tests build programs with this API; it keeps
them readable while producing fully validated
:class:`~repro.p4.program.Program` objects.  (The bundled programs in
:mod:`repro.programs` are written in the DSL instead.)
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple, Union

from repro.exceptions import P4ValidationError
from repro.p4.actions import Action, Primitive
from repro.p4.control import ControlNode, Seq
from repro.p4.expressions import FieldRef
from repro.p4.parser_spec import ParserSpec, ParserState
from repro.p4.program import (
    HeaderField,
    HeaderInstance,
    HeaderType,
    Program,
)
from repro.p4.registers import RegisterArray
from repro.p4.tables import MatchKind, Table, TableKey


def _parse_match_kind(kind: Union[str, MatchKind]) -> MatchKind:
    if isinstance(kind, MatchKind):
        return kind
    try:
        return MatchKind(kind)
    except ValueError:
        raise P4ValidationError(f"unknown match kind {kind!r}") from None


class ProgramBuilder:
    """Accumulates program pieces and assembles a validated Program."""

    def __init__(self, name: str):
        self._name = name
        self._header_types: Dict[str, HeaderType] = {}
        self._headers: Dict[str, HeaderInstance] = {}
        self._registers: Dict[str, RegisterArray] = {}
        self._actions: Dict[str, Action] = {}
        self._tables: Dict[str, Table] = {}
        self._parser_states: Dict[str, ParserState] = {}
        self._parser_start: Optional[str] = None
        self._ingress: Optional[ControlNode] = None
        self._egress: Optional[ControlNode] = None

    # ------------------------------------------------------------------
    def header_type(
        self, name: str, fields: Sequence[Tuple[str, int]]
    ) -> "ProgramBuilder":
        if name in self._header_types:
            raise P4ValidationError(f"duplicate header type {name!r}")
        self._header_types[name] = HeaderType(
            name=name,
            fields=tuple(HeaderField(n, w) for n, w in fields),
        )
        return self

    def header(
        self, name: str, header_type: str, metadata: bool = False
    ) -> "ProgramBuilder":
        if name in self._headers:
            raise P4ValidationError(f"duplicate header instance {name!r}")
        self._headers[name] = HeaderInstance(
            name=name, header_type=header_type, metadata=metadata
        )
        return self

    def metadata(
        self, name: str, fields: Sequence[Tuple[str, int]]
    ) -> "ProgramBuilder":
        """Declare a metadata instance with an ad-hoc type in one call."""
        type_name = f"{name}_t"
        return self.header_type(type_name, fields).header(
            name, type_name, metadata=True
        )

    def register(self, name: str, width: int, size: int) -> "ProgramBuilder":
        if name in self._registers:
            raise P4ValidationError(f"duplicate register {name!r}")
        self._registers[name] = RegisterArray(name=name, width=width, size=size)
        return self

    def action(
        self,
        name: str,
        primitives: Sequence[Primitive],
        parameters: Sequence[str] = (),
    ) -> "ProgramBuilder":
        if name in self._actions:
            raise P4ValidationError(f"duplicate action {name!r}")
        self._actions[name] = Action(
            name=name,
            parameters=tuple(parameters),
            primitives=tuple(primitives),
        )
        return self

    def table(
        self,
        name: str,
        keys: Sequence[Tuple[Union[str, FieldRef], Union[str, MatchKind]]] = (),
        actions: Sequence[str] = (),
        default_action: str = "NoAction",
        default_action_args: Sequence[int] = (),
        size: int = 1024,
    ) -> "ProgramBuilder":
        if name in self._tables:
            raise P4ValidationError(f"duplicate table {name!r}")
        table_keys = []
        for field, kind in keys:
            ref = FieldRef.parse(field) if isinstance(field, str) else field
            table_keys.append(TableKey(field=ref, kind=_parse_match_kind(kind)))
        self._tables[name] = Table(
            name=name,
            keys=tuple(table_keys),
            actions=tuple(actions),
            default_action=default_action,
            default_action_args=tuple(default_action_args),
            size=size,
        )
        return self

    def parser_state(
        self,
        name: str,
        extracts: Sequence[str] = (),
        select: Optional[Union[str, FieldRef]] = None,
        transitions: Optional[Dict[int, str]] = None,
        default: str = "accept",
    ) -> "ProgramBuilder":
        if name in self._parser_states:
            raise P4ValidationError(f"duplicate parser state {name!r}")
        select_ref = (
            FieldRef.parse(select) if isinstance(select, str) else select
        )
        self._parser_states[name] = ParserState(
            name=name,
            extracts=tuple(extracts),
            select=select_ref,
            transitions=dict(transitions or {}),
            default=default,
        )
        if self._parser_start is None:
            self._parser_start = name
        return self

    def parser_start(self, name: str) -> "ProgramBuilder":
        self._parser_start = name
        return self

    def ingress(self, node: ControlNode) -> "ProgramBuilder":
        self._ingress = node
        return self

    def egress(self, node: ControlNode) -> "ProgramBuilder":
        self._egress = node
        return self

    # ------------------------------------------------------------------
    def build(self) -> Program:
        parser = None
        if self._parser_states:
            if self._parser_start is None:
                raise P4ValidationError("parser states without a start state")
            parser = ParserSpec(
                states=dict(self._parser_states), start=self._parser_start
            )
        return Program(
            name=self._name,
            header_types=dict(self._header_types),
            headers=dict(self._headers),
            registers=dict(self._registers),
            actions=dict(self._actions),
            tables=dict(self._tables),
            parser=parser,
            ingress=self._ingress if self._ingress is not None else Seq([]),
            egress=self._egress if self._egress is not None else Seq([]),
        )
