"""The P4 program container.

A :class:`Program` bundles header types, header/metadata instances, register
arrays, actions, tables, a parser spec, and the ingress control AST, and
validates that every cross-reference resolves.  Programs are persistent
values: P2GO's optimization phases never mutate a program in place — they
derive modified programs, mirroring how the real system rewrites P4 source
and re-compiles it — and deriving one costs what changed, not the whole
program.  Everything is frozen: the leaves (header types and instances,
registers, tables, actions, parser states), the control nodes, and the
:class:`Program` itself, whose name -> leaf maps are read-only.  A
deriving function builds plain dicts over the *same* leaves and control
trees and constructs a new program, which validates it; a resize or a
rename skips that, since it changes nothing validation reads.
``copy.deepcopy`` and pickling still give an unshared copy.  DESIGN.md
§16, "Programs are persistent values", has what is shared, where
derived state lives and why this is sound.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field, fields as dc_fields
from dataclasses import replace
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Set, Tuple

from repro.exceptions import P4ValidationError
from repro.p4.actions import (
    Action,
    NoOp,
    STANDARD_METADATA,
)
from repro.p4.control import ControlNode, Seq, iter_applies, iter_nodes, If
from repro.p4.expressions import (
    Expr,
    FieldRef,
    fields_read,
    headers_tested_valid,
    registers_referenced,
)
from repro.p4.parser_spec import ParserSpec
from repro.p4.registers import RegisterArray
from repro.p4.tables import Table
from repro.p4.types import KeepsPinsLocal, bytes_for_bits, pinned


@dataclass(frozen=True)
class HeaderField:
    """One field of a header type."""

    name: str
    width: int

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise P4ValidationError(
                f"field {self.name!r}: width must be positive"
            )


@dataclass(frozen=True)
class HeaderType(KeepsPinsLocal):
    """A named, ordered collection of bit fields."""

    name: str
    fields: Tuple[HeaderField, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "fields", tuple(self.fields))
        names = [f.name for f in self.fields]
        if len(set(names)) != len(names):
            raise P4ValidationError(
                f"header type {self.name!r} has duplicate fields"
            )
        # Widths are cached because pack/unpack sits on the simulator's
        # per-packet hot path.
        bit_width = sum(f.width for f in self.fields)
        object.__setattr__(self, "_bit_width", bit_width)
        object.__setattr__(self, "_byte_width", bytes_for_bits(bit_width))

    @property
    def bit_width(self) -> int:
        return self._bit_width

    @property
    def byte_width(self) -> int:
        return self._byte_width

    def field_names(self) -> Tuple[str, ...]:
        return tuple(f.name for f in self.fields)

    def field_width(self, name: str) -> int:
        for f in self.fields:
            if f.name == name:
                return f.width
        raise P4ValidationError(
            f"header type {self.name!r} has no field {name!r}"
        )

    def has_field(self, name: str) -> bool:
        return any(f.name == name for f in self.fields)


@dataclass(frozen=True)
class HeaderInstance(KeepsPinsLocal):
    """An instance of a header type.

    ``metadata`` instances are always "valid", start zeroed, and are never
    serialized; packet headers become valid when the parser extracts them
    (or an action adds them) and are emitted by the deparser in declaration
    order.  ``auto_valid`` packet headers are added (zero-filled) by the
    parser for *every* packet — the shape profiling instrumentation uses
    for its appended header (§3.1), costing no match-action resources.
    """

    name: str
    header_type: str
    metadata: bool = False
    auto_valid: bool = False


#: Name of the intrinsic metadata header type.
STANDARD_METADATA_TYPE = "standard_metadata_t"


def standard_metadata_type() -> HeaderType:
    """The intrinsic metadata header type every program carries."""
    return HeaderType(
        name=STANDARD_METADATA_TYPE,
        fields=(
            HeaderField("ingress_port", 16),
            HeaderField("egress_port", 16),
            HeaderField("drop_flag", 1),
            HeaderField("to_controller", 1),
            HeaderField("controller_reason", 16),
        ),
    )


#: The name -> leaf maps of a :class:`Program`, read-only once built.
LEAF_MAPS = ("header_types", "headers", "registers", "actions", "tables")

#: Content keys pinned on a :class:`Program` (DESIGN.md §16): the
#: printed DSL's SHA-1 (``repro.p4.dsl.printer.program_fingerprint``),
#: the same text's SHA-1 without table sizes (``profile_key``, hashed
#: only for a program that is profiled) and the analyses' key
#: (``repro.analysis.structure.structure_key``).  Unlike a leaf's pins
#: they travel with the program in a pickle, so a pool worker does not
#: print it again.
PROGRAM_KEYS = ("_fingerprint", "_profile_key", "_structure_key")

#: What a resize or a rename carries over from its parent
#: (:meth:`Program._unchecked`), pinned on the parent from what neither
#: changes: the structure key, the register -> accessing tables map
#: (:meth:`Program.tables_accessing_register`) and each table's
#: size-free memory facts (``repro.target.resources.compute_footprints``).
#: The last two are local: a pickle drops them.
SIZE_FREE_PINS = ("_structure_key", "_register_tables", "_memory_facts")


@dataclass(frozen=True)
class Program:
    """A complete P4 program in IR form: a frozen value, validated when
    it is built.

    The name -> leaf maps are read-only copies of the mappings the
    constructor was given, so a deriving function builds plain dicts and
    constructs (``dataclasses.replace`` does both).  A value that
    constructs is well-formed: every cross-reference resolves
    (:meth:`validate`).
    """

    name: str
    header_types: Mapping[str, HeaderType] = dc_field(default_factory=dict)
    headers: Mapping[str, HeaderInstance] = dc_field(default_factory=dict)
    registers: Mapping[str, RegisterArray] = dc_field(default_factory=dict)
    actions: Mapping[str, Action] = dc_field(default_factory=dict)
    tables: Mapping[str, Table] = dc_field(default_factory=dict)
    parser: Optional[ParserSpec] = None
    ingress: ControlNode = dc_field(default_factory=lambda: Seq([]))
    #: Egress pipeline (§2.1: "an ingress and egress pipeline").  Runs
    #: after the forwarding decision for packets that are neither dropped
    #: nor punted; its tables share the physical stages' memory with the
    #: ingress tables, as on RMT hardware.
    egress: ControlNode = dc_field(default_factory=lambda: Seq([]))

    # Unhashable, as before it was frozen: equality compares the maps.
    __hash__ = None

    def __post_init__(self) -> None:
        maps = {name: dict(getattr(self, name)) for name in LEAF_MAPS}
        _add_intrinsics(maps)
        for name, entries in maps.items():
            object.__setattr__(self, name, MappingProxyType(entries))
        self.validate()

    def __reduce__(self):
        # Read-only maps travel as dicts, the content keys with them;
        # leaf pins stay behind (KeepsPinsLocal).
        fields = {name: getattr(self, name) for name in _FIELDS}
        for name in LEAF_MAPS:
            fields[name] = dict(fields[name])
        keys = {
            name: self.__dict__[name]
            for name in PROGRAM_KEYS
            if name in self.__dict__
        }
        return _rebuild, (fields, keys)

    # ------------------------------------------------------------------
    # Lookup helpers

    def header_type_of(self, instance_name: str) -> HeaderType:
        inst = self.headers.get(instance_name)
        if inst is None:
            raise P4ValidationError(
                f"unknown header instance {instance_name!r}"
            )
        return self.header_types[inst.header_type]

    def field_width(self, ref: FieldRef) -> int:
        return self.header_type_of(ref.header).field_width(ref.field)

    def packet_headers(self) -> List[HeaderInstance]:
        """Non-metadata header instances in declaration order."""
        return [h for h in self.headers.values() if not h.metadata]

    def metadata_headers(self) -> List[HeaderInstance]:
        return [h for h in self.headers.values() if h.metadata]

    def tables_in_control_order(self) -> List[str]:
        """Ingress tables then egress tables, each in apply order."""
        return [a.table for a in iter_applies(self.ingress)] + [
            a.table for a in iter_applies(self.egress)
        ]

    def ingress_tables(self) -> List[str]:
        return [a.table for a in iter_applies(self.ingress)]

    def egress_tables(self) -> List[str]:
        return [a.table for a in iter_applies(self.egress)]

    # ------------------------------------------------------------------
    # Validation

    def validate(self) -> None:
        """Check every cross-reference; raise P4ValidationError on failure."""
        self._validate_headers()
        self._validate_actions()
        self._validate_tables()
        self._validate_parser()
        self._validate_control()

    def _validate_headers(self) -> None:
        for inst in self.headers.values():
            if inst.header_type not in self.header_types:
                raise P4ValidationError(
                    f"header instance {inst.name!r} uses undefined type "
                    f"{inst.header_type!r}"
                )

    def _check_field(self, ref: FieldRef, context: str) -> None:
        if ref.header not in self.headers:
            raise P4ValidationError(
                f"{context}: unknown header {ref.header!r} in {ref.path!r}"
            )
        htype = self.header_type_of(ref.header)
        if not htype.has_field(ref.field):
            raise P4ValidationError(
                f"{context}: header {ref.header!r} has no field {ref.field!r}"
            )

    def _check_expr(self, expr: Expr, context: str) -> None:
        for ref in fields_read(expr):
            self._check_field(ref, context)
        for header in headers_tested_valid(expr):
            if header not in self.headers:
                raise P4ValidationError(
                    f"{context}: valid() tests unknown header {header!r}"
                )
        for reg in registers_referenced(expr):
            if reg not in self.registers:
                raise P4ValidationError(
                    f"{context}: unknown register {reg!r}"
                )

    def _validate_actions(self) -> None:
        for action in self.actions.values():
            ctx = f"action {action.name!r}"
            for prim in action.primitives:
                for ref in prim.reads() | prim.writes():
                    self._check_field(ref, ctx)
                for reg in prim.registers_read() | prim.registers_written():
                    if reg not in self.registers:
                        raise P4ValidationError(
                            f"{ctx}: unknown register {reg!r}"
                        )
                for header in prim.headers_added() | prim.headers_removed():
                    if header not in self.headers:
                        raise P4ValidationError(
                            f"{ctx}: unknown header {header!r}"
                        )
                    if self.headers[header].metadata:
                        raise P4ValidationError(
                            f"{ctx}: cannot add/remove metadata {header!r}"
                        )

    def _validate_tables(self) -> None:
        for table in self.tables.values():
            ctx = f"table {table.name!r}"
            for key in table.keys:
                self._check_field(key.field, ctx)
            for action_name in table.all_action_names():
                if action_name not in self.actions:
                    raise P4ValidationError(
                        f"{ctx}: unknown action {action_name!r}"
                    )
            default = self.actions[table.default_action]
            if len(table.default_action_args) != len(default.parameters):
                raise P4ValidationError(
                    f"{ctx}: default action {table.default_action!r} takes "
                    f"{len(default.parameters)} args, got "
                    f"{len(table.default_action_args)}"
                )

    def _validate_parser(self) -> None:
        if self.parser is None:
            return
        self.parser.validate()
        for state in self.parser.states.values():
            ctx = f"parser state {state.name!r}"
            for header in state.extracts:
                if header not in self.headers:
                    raise P4ValidationError(
                        f"{ctx}: extracts unknown header {header!r}"
                    )
                if self.headers[header].metadata:
                    raise P4ValidationError(
                        f"{ctx}: cannot extract metadata {header!r}"
                    )
            if state.select is not None:
                self._check_field(state.select, ctx)

    def _validate_control(self) -> None:
        seen: Set[str] = set()
        for control in (self.ingress, self.egress):
            for apply_node in iter_applies(control):
                if apply_node.table not in self.tables:
                    raise P4ValidationError(
                        f"control applies unknown table "
                        f"{apply_node.table!r}"
                    )
                if apply_node.table in seen:
                    raise P4ValidationError(
                        f"table {apply_node.table!r} is applied more than "
                        "once"
                    )
                seen.add(apply_node.table)
            for node in iter_nodes(control):
                if isinstance(node, If):
                    self._check_expr(node.condition, "control condition")

    # ------------------------------------------------------------------
    # Derived programs

    def clone(self, new_name: Optional[str] = None) -> "Program":
        """This program under ``new_name`` (default: its own), sharing
        everything.  Not validated again: nothing it checks changed."""
        return self._unchecked(
            name=self.name if new_name is None else new_name
        )

    def with_table_size(self, table_name: str, new_size: int) -> "Program":
        """This program with one table's entry capacity changed (§3.3)."""
        if table_name not in self.tables:
            raise P4ValidationError(f"unknown table {table_name!r}")
        tables = dict(self.tables)
        tables[table_name] = tables[table_name].resized(new_size)
        return self._unchecked(tables=tables)

    def with_register_size(self, register_name: str, new_size: int) -> "Program":
        """This program with one register array's cell count changed
        (§3.3)."""
        if register_name not in self.registers:
            raise P4ValidationError(f"unknown register {register_name!r}")
        registers = dict(self.registers)
        registers[register_name] = registers[register_name].resized(new_size)
        return self._unchecked(registers=registers)

    def with_ingress(self, new_ingress: ControlNode) -> "Program":
        """This program with a replaced ingress control tree."""
        return replace(self, ingress=new_ingress)

    def _unchecked(self, **changes) -> "Program":
        """A copy with ``changes`` and no validation: for a rename or a
        resize, which change nothing :meth:`validate` reads.  So the
        parent's :data:`SIZE_FREE_PINS` carry over; its fingerprint and
        profile key do not."""
        fields = {name: getattr(self, name) for name in _FIELDS}
        fields.update(changes)
        keys = {
            name: self.__dict__[name]
            for name in SIZE_FREE_PINS
            if name in self.__dict__
        }
        return _rebuild(fields, keys)

    # ------------------------------------------------------------------
    # Convenience queries used across the analysis layer

    def tables_accessing_register(self, register_name: str) -> List[str]:
        """Tables whose actions read or write the given register, in
        declaration order: a lookup in a map built once per value."""
        return list(
            pinned(self, "_register_tables", _register_tables).get(
                register_name, ()
            )
        )


def _register_tables(program: Program) -> Dict[str, Tuple[str, ...]]:
    """Each register any action touches -> the tables whose actions do."""
    out: Dict[str, List[str]] = {}
    for table in program.tables.values():
        touched: Set[str] = set()
        for action_name in table.all_action_names():
            action = program.actions[action_name]
            touched |= action.registers_read() | action.registers_written()
        for register in touched:
            out.setdefault(register, []).append(table.name)
    return {register: tuple(names) for register, names in out.items()}


_FIELDS = tuple(field.name for field in dc_fields(Program))


def _rebuild(fields: Dict, keys: Dict) -> Program:
    """A :class:`Program` from fields that already form a valid one
    (an unpickled program, or a derivation that changes nothing
    :meth:`Program.validate` reads), with its content keys.  A map
    given as a dict is made read-only; one already read-only is shared."""
    out = object.__new__(Program)
    for name in LEAF_MAPS:
        if type(fields[name]) is dict:
            fields[name] = MappingProxyType(fields[name])
    out.__dict__.update(fields, **keys)
    return out


def _add_intrinsics(maps: Dict[str, Dict]) -> None:
    """Add the intrinsic metadata and ``NoAction`` to a program's maps,
    only when missing: a derived program arrives with its parent's."""
    if STANDARD_METADATA_TYPE not in maps["header_types"]:
        maps["header_types"][STANDARD_METADATA_TYPE] = (
            standard_metadata_type()
        )
    if STANDARD_METADATA not in maps["headers"]:
        maps["headers"][STANDARD_METADATA] = HeaderInstance(
            name=STANDARD_METADATA,
            header_type=STANDARD_METADATA_TYPE,
            metadata=True,
        )
    if "NoAction" not in maps["actions"]:
        maps["actions"]["NoAction"] = Action(
            name="NoAction", primitives=(NoOp(),)
        )
