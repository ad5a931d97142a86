"""Pretty-printer: :class:`~repro.p4.program.Program` → DSL source.

P2GO's output is "an optimized P4 program" the programmer reads and
reviews (§2.2), so every rewritten program can be rendered back to source.
``parse_program(print_program(p), p.name) == p`` is property-tested.
"""

from __future__ import annotations

import hashlib
from typing import Callable, List

from repro.exceptions import ReproError
from repro.p4.actions import (
    Action,
    AddHeader,
    AddToField,
    Drop,
    HashFields,
    MinOf,
    ModifyField,
    NoOp,
    Primitive,
    RegisterRead,
    RegisterWrite,
    RemoveHeader,
    SendToController,
    SetEgressPort,
    SubtractFromField,
    STANDARD_METADATA,
)
from repro.p4.control import Apply, ControlNode, If, Seq, tables_applied
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
from repro.p4.parser_spec import ParserSpec
from repro.p4.program import HeaderInstance, HeaderType, Program
from repro.p4.registers import RegisterArray
from repro.p4.tables import Table
from repro.p4.types import pinned

_INTRINSIC_TYPES = {"standard_metadata_t"}
_INTRINSIC_HEADERS = {STANDARD_METADATA}
_INTRINSIC_ACTIONS = {"NoAction"}


def print_expr(expr: Expr) -> str:
    if isinstance(expr, FieldRef):
        return expr.path
    if isinstance(expr, Const):
        return str(expr.value)
    if isinstance(expr, ParamRef):
        return expr.name
    if isinstance(expr, RegisterSize):
        return f"size({expr.register})"
    if isinstance(expr, ValidExpr):
        return f"valid({expr.header})"
    if isinstance(expr, BinOp):
        return f"({print_expr(expr.left)} {expr.op} {print_expr(expr.right)})"
    if isinstance(expr, LNot):
        return f"not {print_expr(expr.operand)}"
    if isinstance(expr, LAnd):
        return f"({print_expr(expr.left)} and {print_expr(expr.right)})"
    if isinstance(expr, LOr):
        return f"({print_expr(expr.left)} or {print_expr(expr.right)})"
    raise ReproError(f"unknown expression {expr!r}")


def print_primitive(prim: Primitive) -> str:
    if isinstance(prim, ModifyField):
        return f"modify_field({prim.dst.path}, {print_expr(prim.src)});"
    if isinstance(prim, AddToField):
        return f"add_to_field({prim.dst.path}, {print_expr(prim.src)});"
    if isinstance(prim, SubtractFromField):
        return (
            f"subtract_from_field({prim.dst.path}, {print_expr(prim.src)});"
        )
    if isinstance(prim, Drop):
        return "drop();"
    if isinstance(prim, NoOp):
        return "no_op();"
    if isinstance(prim, SetEgressPort):
        return f"set_egress_port({print_expr(prim.port)});"
    if isinstance(prim, SendToController):
        return f"send_to_controller({prim.reason});"
    if isinstance(prim, RegisterRead):
        return (
            f"register_read({prim.dst.path}, {prim.register}, "
            f"{print_expr(prim.index)});"
        )
    if isinstance(prim, RegisterWrite):
        return (
            f"register_write({prim.register}, {print_expr(prim.index)}, "
            f"{print_expr(prim.value)});"
        )
    if isinstance(prim, HashFields):
        inputs = ", ".join(ref.path for ref in prim.inputs)
        return (
            f"hash({prim.dst.path}, {prim.algorithm}, {{{inputs}}}, "
            f"{print_expr(prim.modulo)});"
        )
    if isinstance(prim, MinOf):
        return (
            f"min({prim.dst.path}, {print_expr(prim.left)}, "
            f"{print_expr(prim.right)});"
        )
    if isinstance(prim, AddHeader):
        return f"add_header({prim.header});"
    if isinstance(prim, RemoveHeader):
        return f"remove_header({prim.header});"
    raise ReproError(f"unknown primitive {prim!r}")


def _print_control(node: ControlNode, indent: int, lines: List[str]) -> None:
    pad = "    " * indent
    if isinstance(node, Seq):
        for child in node.nodes:
            _print_control(child, indent, lines)
        return
    if isinstance(node, If):
        lines.append(f"{pad}if ({print_expr(node.condition)}) {{")
        _print_control(node.then_node, indent + 1, lines)
        if node.else_node is not None:
            lines.append(f"{pad}}} else {{")
            _print_control(node.else_node, indent + 1, lines)
        lines.append(f"{pad}}}")
        return
    if isinstance(node, Apply):
        if node.on_hit is None and node.on_miss is None:
            lines.append(f"{pad}apply({node.table});")
            return
        lines.append(f"{pad}apply({node.table}) {{")
        if node.on_hit is not None:
            lines.append(f"{pad}    hit {{")
            _print_control(node.on_hit, indent + 2, lines)
            lines.append(f"{pad}    }}")
        if node.on_miss is not None:
            lines.append(f"{pad}    miss {{")
            _print_control(node.on_miss, indent + 2, lines)
            lines.append(f"{pad}    }}")
        lines.append(f"{pad}}}")
        return
    raise ReproError(f"unknown control node {node!r}")


def _print_parser(parser: ParserSpec, lines: List[str]) -> None:
    # Emit the start state first so the parser round-trips its entry point.
    order = [parser.start] + [
        name for name in parser.states if name != parser.start
    ]
    for state_name in order:
        state = parser.states[state_name]
        lines.append(f"parser {state.name} {{")
        for header in state.extracts:
            lines.append(f"    extract({header});")
        if state.select is not None:
            lines.append(f"    return select({state.select.path}) {{")
            for value in sorted(state.transitions):
                lines.append(
                    f"        {value} : {state.transitions[value]};"
                )
            lines.append(f"        default : {state.default};")
            lines.append("    }")
        else:
            lines.append(f"    return {state.default};")
        lines.append("}")
        lines.append("")


def _lines(render: Callable[[object, List[str]], None]):
    """A text renderer from a renderer that appends lines."""

    def text(value) -> str:
        lines: List[str] = []
        render(value, lines)
        return "\n".join(lines)

    return text


@_lines
def _header_type_text(htype: HeaderType, lines: List[str]) -> None:
    lines.append(f"header_type {htype.name} {{")
    lines.append("    fields {")
    for field in htype.fields:
        lines.append(f"        {field.name} : {field.width};")
    lines.append("    }")
    lines.append("}")
    lines.append("")


def _instance_text(inst: HeaderInstance) -> str:
    keyword = "metadata" if inst.metadata else "header"
    suffix = " auto" if (inst.auto_valid and not inst.metadata) else ""
    return f"{keyword} {inst.header_type} {inst.name}{suffix};"


@_lines
def _register_text(register: RegisterArray, lines: List[str]) -> None:
    lines.append(f"register {register.name} {{")
    lines.append(f"    width : {register.width};")
    lines.append(f"    instance_count : {register.size};")
    lines.append("}")
    lines.append("")


@_lines
def _action_text(action: Action, lines: List[str]) -> None:
    params = ", ".join(action.parameters)
    lines.append(f"action {action.name}({params}) {{")
    for prim in action.primitives:
        lines.append(f"    {print_primitive(prim)}")
    lines.append("}")
    lines.append("")


def _print_table(table: Table, lines: List[str], sized: bool = True) -> None:
    lines.append(f"table {table.name} {{")
    if table.keys:
        lines.append("    reads {")
        for key in table.keys:
            lines.append(f"        {key.field.path} : {key.kind.value};")
        lines.append("    }")
    if table.actions:
        lines.append("    actions {")
        for action_name in table.actions:
            lines.append(f"        {action_name};")
        lines.append("    }")
    args = ""
    if table.default_action_args:
        args = (
            "("
            + ", ".join(str(a) for a in table.default_action_args)
            + ")"
        )
    lines.append(f"    default_action : {table.default_action}{args};")
    if sized:
        lines.append(f"    size : {table.size};")
    lines.append("}")
    lines.append("")


_table_text = _lines(_print_table)
#: A table's text without its ``size`` line: what :func:`profile_key`
#: hashes.
_table_shape_text = _lines(
    lambda table, lines: _print_table(table, lines, sized=False)
)


_parser_text = _lines(_print_parser)
#: A control root's body, one level in; "" when it prints no line.
_root_text = _lines(lambda root, lines: _print_control(root, 1, lines))


def program_fingerprint(program: Program) -> str:
    """Content key of a program: SHA-1 of its printed DSL, computed once
    per value and pinned on it."""
    return pinned(program, "_fingerprint", _print_digest)


def profile_key(program: Program) -> str:
    """Content key of what a replay of ``program`` can observe: SHA-1 of
    its printed DSL without table sizes, computed once per value on the
    first ask (most probes are compiled, never replayed) and pinned on
    it.  No replay reads a table's capacity (only
    ``RuntimeConfig.validate`` does, DESIGN.md §5), so a table resize
    keeps it; a register's size changes hashing and stays in."""
    return pinned(program, "_profile_key", _shape_digest)


def _print_digest(program: Program) -> str:
    return hashlib.sha1(print_program(program).encode()).hexdigest()


def _shape_digest(program: Program) -> str:
    text = "\n".join(_pieces(program, sized=False))
    return hashlib.sha1(text.encode()).hexdigest()


def print_program(program: Program) -> str:
    """Render a program to DSL source (intrinsics are implicit).

    The text of each leaf and of each control root is rendered once and
    pinned on it (DESIGN.md §16), so a program derived by replacing one
    table renders one table.  Pins never travel in a pickle: an unpickled
    program renders from scratch, to the same text."""
    return "\n".join(_pieces(program))


def _pieces(program: Program, sized: bool = True) -> List[str]:
    """The printed program's pieces; each table's without its ``size``
    line unless ``sized``."""
    pieces: List[str] = [f"// program: {program.name}", ""]
    pieces += [
        pinned(htype, "_text", _header_type_text)
        for htype in program.header_types.values()
        if htype.name not in _INTRINSIC_TYPES
    ]
    pieces += [
        pinned(inst, "_text", _instance_text)
        for inst in program.headers.values()
        if inst.name not in _INTRINSIC_HEADERS
    ]
    pieces.append("")
    pieces += [
        pinned(register, "_text", _register_text)
        for register in program.registers.values()
    ]
    pieces += [
        pinned(action, "_text", _action_text)
        for action in program.actions.values()
        if action.name not in _INTRINSIC_ACTIONS
    ]
    pieces += [
        pinned(table, "_text", _table_text) if sized
        else pinned(table, "_shape_text", _table_shape_text)
        for table in program.tables.values()
    ]
    if program.parser is not None:
        pieces.append(pinned(program.parser, "_text", _parser_text))
    controls = [("ingress", program.ingress)]
    if tables_applied(program.egress):
        controls.append(("egress", program.egress))
    for kind, root in controls:
        pieces.append(f"control {kind} {{")
        body = pinned(root, "_text", _root_text)
        if body:
            pieces.append(body)
        pieces += ["}", ""]
    return pieces
