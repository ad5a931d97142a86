"""Per-program execution plan: the engine's bound actions and control.

:func:`build_plan` turns every action into a tuple of closures
(primitive kind dispatched once, ``FieldRef`` -> header, field and mask,
``ParamRef`` -> argument position) and both control trees into
``Seq``/``If``/``Apply`` closures, once per switch — plain closures, no
``exec`` (DESIGN.md §12).  The walk it stands in for (``_run_control``,
``_apply_table``, :mod:`repro.sim.action_interp`) never runs through
this module and stays the oracle it is tested against.  What is bound
here and what must be looked up per packet: DESIGN.md §5, "Execution
plan".  A plan binds the switch's config as it was at build:
``BehavioralSwitch.invalidate_caches`` drops it.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from typing import Callable, FrozenSet, List, NamedTuple, Sequence

from repro.exceptions import SimulationError
from repro.p4 import actions as act
from repro.p4 import expressions as ex
from repro.p4.control import Apply, If, Seq
from repro.p4.types import CPU_PORT, DROP_PORT, mask
from repro.sim.events import ExecutionStep
from repro.sim.hashing import compute_hash
from repro.sim.match import compile_table

#: One packet's working set; every closure takes it as ``p``.  ``log``
#: holds the name of each header written: the deparser re-packs those.
Frame = namedtuple("Frame", "headers valid log steps")

_BINOPS = {
    "==": operator.eq, "!=": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
    # "-" may go negative; the write's mask wraps it.
    "+": operator.add, "-": operator.sub,
    "&": operator.and_, "|": operator.or_, "^": operator.xor,
}


def _fail(message: str) -> Callable:
    """What the walker, too, only rejects when a packet reaches it."""

    def fail(*_args):
        raise SimulationError(message)

    return fail


class _Steps(dict):
    """One table's :class:`ExecutionStep` per action for one outcome,
    built on first use: steps are immutable, so every packet that
    takes the same (table, action, hit) appends the same one."""

    def __init__(self, table: str, hit: bool):
        super().__init__()
        self.table, self.hit = table, hit

    def __missing__(self, action: str) -> ExecutionStep:
        step = self[action] = ExecutionStep(self.table, action, self.hit)
        return step


class Plan(NamedTuple):
    """A switch's bound traversal."""

    #: ``run(frame)``: ingress, then egress for packets neither dropped
    #: nor punted.
    run: Callable[[Frame], None]
    #: The packet headers some write modifies in place — the header
    #: dicts a replay must not share with its parse template.  Adding a
    #: header replaces its dict and removing one drops it, so neither
    #: is a write in place.
    writes: FrozenSet[str]


def build_plan(switch) -> Plan:
    """The traversal of ``switch.program`` with ``switch.config``'s
    compiled tables and default actions bound."""
    program, state, config = switch.program, switch.state, switch.config
    written = set()

    def value(expr, params: Sequence[str] = ()) -> Callable:
        """``expr`` -> ``f(p, args) -> int``; booleans are 0/1."""
        if isinstance(expr, ex.FieldRef):
            header, name = expr.header, expr.field
            # Invalid-header reads yield 0 (bmv2 convention).
            return lambda p, args: (
                p.headers[header].get(name, 0) if header in p.valid else 0
            )
        if isinstance(expr, ex.Const):
            number = expr.value
            return lambda p, args: number
        if isinstance(expr, ex.ParamRef) and expr.name in params:
            position = params.index(expr.name)
            return lambda p, args: args[position]
        if isinstance(expr, ex.ParamRef):
            return _fail(f"action parameter {expr.name!r} has no bound value")
        if isinstance(expr, ex.RegisterSize):
            return lambda p, args: state.register_size(expr.register)
        if isinstance(expr, ex.ValidExpr):
            header = expr.header
            return lambda p, args: 1 if header in p.valid else 0
        if isinstance(expr, ex.LNot):
            operand = value(expr.operand, params)
            return lambda p, args: 0 if operand(p, args) else 1
        left, right = value(expr.left, params), value(expr.right, params)
        if isinstance(expr, ex.LAnd):
            return lambda p, args: 1 if left(p, args) and right(p, args) else 0
        if isinstance(expr, ex.LOr):
            return lambda p, args: 1 if left(p, args) or right(p, args) else 0
        op = _BINOPS[expr.op]
        if expr.is_comparison:
            return lambda p, args: 1 if op(left(p, args), right(p, args)) else 0
        return lambda p, args: op(left(p, args), right(p, args))

    def assign(ref: ex.FieldRef, source: Callable) -> Callable:
        """Truncating, logged write of ``source(p, args)``; on an
        invalid header it creates the field dict but not validity."""
        header, name = ref.header, ref.field
        width_mask = mask(program.field_width(ref))
        written.add(header)

        def write(p, args):
            result = source(p, args) & width_mask
            fields = p.headers.get(header)
            if fields is None:
                fields = p.headers[header] = {}
            fields[name] = result
            p.log.add(header)

        return write

    def primitive(prim, params: Sequence[str]) -> List[Callable]:
        """``prim`` -> closures ``f(p, args)``."""
        if isinstance(prim, act.ModifyField):
            return [assign(prim.dst, value(prim.src, params))]
        if isinstance(prim, (act.AddToField, act.SubtractFromField)):
            op = "+" if isinstance(prim, act.AddToField) else "-"
            total = ex.BinOp(op, prim.dst, prim.src)
            return [assign(prim.dst, value(total, params))]
        if isinstance(prim, act.Drop):
            return [
                assign(act.EGRESS_PORT, value(ex.Const(DROP_PORT))),
                assign(act.DROP_FLAG, value(ex.Const(1))),
            ]
        if isinstance(prim, act.SetEgressPort):
            return [assign(act.EGRESS_PORT, value(prim.port, params))]
        if isinstance(prim, act.SendToController):
            return [
                assign(act.EGRESS_PORT, value(ex.Const(CPU_PORT))),
                assign(act.TO_CONTROLLER, value(ex.Const(1))),
                assign(act.CONTROLLER_REASON, value(ex.Const(prim.reason))),
            ]
        if isinstance(prim, act.RegisterRead):
            index = value(prim.index, params)
            return [assign(
                prim.dst,
                lambda p, args: state.read(prim.register, index(p, args)),
            )]
        if isinstance(prim, act.RegisterWrite):
            index, cell = value(prim.index, params), value(prim.value, params)
            # Index, then value: the order their errors surface in.
            return [lambda p, args: state.write(
                prim.register, index(p, args), cell(p, args)
            )]
        if isinstance(prim, act.MinOf):
            left, right = value(prim.left, params), value(prim.right, params)
            return [assign(
                prim.dst, lambda p, args: min(left(p, args), right(p, args))
            )]
        if isinstance(prim, act.HashFields):
            modulo = value(prim.modulo, params)
            inputs = [
                (value(ref), program.field_width(ref)) for ref in prim.inputs
            ]
            return [assign(prim.dst, lambda p, args: compute_hash(
                prim.algorithm,
                [(read(p, args), width) for read, width in inputs],
                modulo(p, args),
            ))]
        if isinstance(prim, act.AddHeader):
            header = prim.header
            names = program.header_type_of(header).field_names()

            def add_header(p, args):
                # Zero-fill, and log the header like any other write.
                p.valid.add(header)
                p.headers[header] = dict.fromkeys(names, 0)
                p.log.add(header)

            return [add_header]
        if isinstance(prim, act.RemoveHeader):
            def remove_header(p, args):
                p.valid.discard(prim.header)
                p.headers.pop(prim.header, None)

            return [remove_header]
        if isinstance(prim, act.NoOp):
            return []
        return [_fail(f"unknown primitive {prim!r}")]

    def action(definition: act.Action) -> Callable:
        name, arity = definition.name, len(definition.parameters)
        body = tuple(
            step
            for prim in definition.primitives
            for step in primitive(prim, definition.parameters)
        )

        def run(p, args):
            if len(args) != arity:
                raise SimulationError(
                    f"action {name!r} takes {arity} args, got {len(args)}"
                )
            for step in body:
                step(p, args)

        return run

    actions = {name: action(a) for name, a in program.actions.items()}

    def control(node) -> Callable[[Frame], None]:
        if isinstance(node, Seq):
            children = tuple(control(child) for child in node.nodes)

            def seq(p):
                for child in children:
                    child(p)

            return seq
        if isinstance(node, If):
            condition = value(node.condition)
            then_node = control(node.then_node)
            else_node = control(node.else_node or Seq())
            return lambda p: (
                then_node(p) if condition(p, ()) else else_node(p)
            )
        if not isinstance(node, Apply):
            return _fail(f"unknown control node {node!r}")
        table = program.tables[node.table]
        table_name = table.name
        keys = [(k.field.header, k.field.field) for k in table.keys]
        key_headers = frozenset(header for header, _name in keys)
        on_hit = None if node.on_hit is None else control(node.on_hit)
        on_miss = None if node.on_miss is None else control(node.on_miss)
        hit_steps = _Steps(table_name, True)
        lookup = None
        if keys:
            widths = [program.field_width(k.field) for k in table.keys]
            lookup = compile_table(
                table, widths, config.entries_for(table_name)
            ).lookup
        default_name, default_args = config.default_for(table)
        default_action = actions[default_name]
        default_step = ExecutionStep(table_name, default_name, False)

        def apply(p):
            entry = None
            # A key whose header is invalid cannot match any entry.
            if lookup is not None and key_headers <= p.valid:
                headers = p.headers
                entry = lookup(
                    [headers[header].get(name, 0) for header, name in keys]
                )
            if entry is not None:
                actions[entry.action](p, entry.action_args)
                p.steps.append(hit_steps[entry.action])
                if on_hit is not None:
                    on_hit(p)
            else:
                default_action(p, default_args)
                p.steps.append(default_step)
                if on_miss is not None:
                    on_miss(p)

        return apply

    ingress, egress = control(program.ingress), control(program.egress)
    drop_flag, to_controller = value(act.DROP_FLAG), value(act.TO_CONTROLLER)

    def run(p):
        ingress(p)
        if not (drop_flag(p, ()) or to_controller(p, ())):
            egress(p)

    packet_headers = {inst.name for inst in program.packet_headers()}
    return Plan(run, frozenset(written & packet_headers))
