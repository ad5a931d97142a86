"""Per-program execution plan: the engine's bound actions and control.

:func:`build_plan` turns every action into closures (primitive kind
dispatched once, ``FieldRef`` -> header, field and mask, ``ParamRef`` ->
argument position, a constant -> its value already masked to the field
it is written to) and both control trees into closures, once per switch
— plain closures, no ``exec`` (DESIGN.md §12).  It decides at build all
that the program and config fix, so a packet pays only for what the
packet decides: a validity test is a set test, a nested ``Seq`` is one
flat loop, a branch or table outcome that does nothing is not called,
metadata (always valid) is read and written without a validity test or
a log entry, and each table entry's action closure, action data and hit
step come back from the lookup itself.  The walk it stands in for
(``_run_control``, ``_apply_table``, :mod:`repro.sim.action_interp`)
never runs through this module and stays the oracle it is tested
against.  What is bound here and what must be looked up per packet:
DESIGN.md §5, "Execution plan".  A plan binds the switch's config as
it was at build: ``BehavioralSwitch.invalidate_caches`` drops it.
"""

from __future__ import annotations

import operator
from typing import Callable, FrozenSet, NamedTuple, Optional, Sequence

from repro.exceptions import SimulationError
from repro.p4 import actions as act
from repro.p4 import expressions as ex
from repro.p4.control import Apply, If, Seq
from repro.p4.types import CPU_PORT, DROP_PORT, bytes_for_bits, mask
from repro.sim.events import ExecutionStep
from repro.sim.hashing import ALGORITHMS, compute_hash
from repro.sim.match import compile_table


class Frame:
    """One packet's working set; every closure takes it as ``p``.  A
    batch re-points one frame at each packet's dicts in turn.  ``log``
    holds the name of each packet header written: the deparser re-packs
    those."""

    __slots__ = ("headers", "valid", "log", "steps")


_BINOPS = {
    "==": operator.eq, "!=": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
    # "-" may go negative; the write's mask wraps it.
    "+": operator.add, "-": operator.sub,
    "&": operator.and_, "|": operator.or_, "^": operator.xor,
}


def _fail(message: str, error: type = SimulationError) -> Callable:
    """What the walker, too, only raises when a packet reaches it."""

    def fail(*_args):
        raise error(message)

    return fail


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


def _leaves(node):
    """``node``'s children with every nested ``Seq`` spliced in."""
    if isinstance(node, Seq):
        for child in node.nodes:
            yield from _leaves(child)
    else:
        yield node


def build_plan(switch) -> Plan:
    """The traversal of ``switch.program`` with ``switch.config``'s
    compiled tables and default actions bound."""
    program, state, config = switch.program, switch.state, switch.config
    # Always valid and installed per packet (``Program.validate``
    # forbids adding, removing or extracting one), never deparsed.
    metadata = frozenset(inst.name for inst in program.metadata_headers())
    written = set()

    def value(expr, params: Sequence[str] = ()) -> Callable:
        """``expr`` -> ``f(p, args) -> int``; booleans are 0/1."""
        if isinstance(expr, ex.FieldRef):
            header, name = expr.header, expr.field
            if header in metadata:
                return lambda p, args: p.headers[header].get(name, 0)
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

    def assign(ref: ex.FieldRef, source, params: Sequence[str] = ()):
        """Truncating write of ``source`` — an expression, or a closure
        ``f(p, args)`` — to ``ref``.  A packet-header write is logged,
        and on an invalid header creates the field dict but not
        validity."""
        header, name = ref.header, ref.field
        width_mask = mask(program.field_width(ref))
        constant = isinstance(source, ex.Const)
        if constant:
            number = source.value & width_mask
        elif not callable(source):
            source = value(source, params)
        if header in metadata:
            if constant:
                def write(p, args):
                    p.headers[header][name] = number
            else:
                def write(p, args):
                    p.headers[header][name] = source(p, args) & width_mask
            return write
        written.add(header)

        def write(p, args):
            result = number if constant else source(p, args) & width_mask
            fields = p.headers.get(header)
            if fields is None:
                fields = p.headers[header] = {}
            fields[name] = result
            p.log.add(header)

        return write

    def primitive(prim, params: Sequence[str]):
        """``prim`` -> closures ``f(p, args)``."""
        if isinstance(prim, act.ModifyField):
            yield assign(prim.dst, prim.src, params)
        elif isinstance(prim, (act.AddToField, act.SubtractFromField)):
            op = "+" if isinstance(prim, act.AddToField) else "-"
            yield assign(prim.dst, ex.BinOp(op, prim.dst, prim.src), params)
        elif isinstance(prim, act.Drop):
            yield assign(act.EGRESS_PORT, ex.Const(DROP_PORT))
            yield assign(act.DROP_FLAG, ex.Const(1))
        elif isinstance(prim, act.SetEgressPort):
            yield assign(act.EGRESS_PORT, prim.port, params)
        elif isinstance(prim, act.SendToController):
            yield assign(act.EGRESS_PORT, ex.Const(CPU_PORT))
            yield assign(act.TO_CONTROLLER, ex.Const(1))
            yield assign(act.CONTROLLER_REASON, ex.Const(prim.reason))
        elif isinstance(prim, act.RegisterRead):
            register, index = prim.register, value(prim.index, params)
            read = state.read
            yield assign(
                prim.dst, lambda p, args: read(register, index(p, args))
            )
        elif isinstance(prim, act.RegisterWrite):
            index, cell = value(prim.index, params), value(prim.value, params)
            register, store = prim.register, state.write
            # Index, then value: the order their errors surface in.
            yield lambda p, args: store(
                register, index(p, args), cell(p, args)
            )
        elif isinstance(prim, act.MinOf):
            left, right = value(prim.left, params), value(prim.right, params)
            yield assign(
                prim.dst, lambda p, args: min(left(p, args), right(p, args))
            )
        elif isinstance(prim, act.HashFields):
            yield assign(prim.dst, digest(prim, params))
        elif isinstance(prim, act.AddHeader):
            header = prim.header
            names = program.header_type_of(header).field_names()

            def add_header(p, args):
                # Zero-fill, and log the header like any other write.
                p.valid.add(header)
                p.headers[header] = dict.fromkeys(names, 0)
                p.log.add(header)

            yield add_header
        elif isinstance(prim, act.RemoveHeader):
            def remove_header(p, args):
                p.valid.discard(prim.header)
                p.headers.pop(prim.header, None)

            yield remove_header
        elif not isinstance(prim, act.NoOp):
            yield _fail(f"unknown primitive {prim!r}")

    def digest(prim: act.HashFields, params: Sequence[str]) -> Callable:
        """``compute_hash`` of ``prim`` with its algorithm and each
        input's byte width bound; a packet it rejects gets
        ``compute_hash``'s own error."""
        algorithm, modulo = prim.algorithm, value(prim.modulo, params)
        inputs = tuple(
            (value(ref), bytes_for_bits(program.field_width(ref)))
            for ref in prim.inputs
        )
        function = ALGORITHMS.get(algorithm)
        if function is None:
            return lambda p, args: compute_hash(algorithm, (), modulo(p, args))

        def run(p, args):
            # Every input is a field value, masked to its width.
            data = b"".join([
                read(p, args).to_bytes(size, "big") for read, size in inputs
            ])
            divisor = modulo(p, args)
            if divisor <= 0:
                return compute_hash(algorithm, (), divisor)
            return function(data) % divisor

        return run

    def action(definition: act.Action) -> Optional[Callable]:
        """``f(p, args)``, or None for an action that does nothing."""
        body = tuple(
            step
            for prim in definition.primitives
            for step in primitive(prim, definition.parameters)
        )
        if len(body) <= 1:
            return body[0] if body else None

        def run(p, args):
            for step in body:
                step(p, args)

        return run

    actions = {name: action(a) for name, a in program.actions.items()}

    def bound(name: str, args) -> Optional[Callable]:
        """Action ``name``'s closure for action data ``args``; an action
        or arity the walker rejects when a packet reaches it binds a
        closure that rejects the packet the same way."""
        definition = program.actions.get(name)
        if definition is None:
            return _fail(name, KeyError)
        arity = len(definition.parameters)
        if len(args) != arity:
            return _fail(
                f"action {name!r} takes {arity} args, got {len(args)}"
            )
        return actions[name]

    def control(node) -> Optional[Callable[[Frame], None]]:
        """``f(p)``, or None for a node no packet can observe."""
        if isinstance(node, Seq):
            children = tuple(
                run for run in map(control, _leaves(node)) if run is not None
            )
            if len(children) <= 1:
                return children[0] if children else None

            def seq(p):
                for child in children:
                    child(p)

            return seq
        if isinstance(node, If):
            return branch(
                node.condition,
                control(node.then_node),
                None if node.else_node is None else control(node.else_node),
            )
        if isinstance(node, Apply):
            return apply(node)
        return _fail(f"unknown control node {node!r}")

    def branch(condition, then_run, else_run):
        negated = isinstance(condition, ex.LNot)
        test = condition.operand if negated else condition
        if isinstance(test, ex.ValidExpr):
            # A set test, which cannot fail: a branch with nothing to
            # run is not taken at all.
            header = test.header
            if negated:
                then_run, else_run = else_run, then_run
            if then_run is None and else_run is None:
                return None
            if else_run is None:
                def when_valid(p):
                    if header in p.valid:
                        then_run(p)

                return when_valid
            if then_run is None:
                def unless_valid(p):
                    if header not in p.valid:
                        else_run(p)

                return unless_valid

            def if_valid(p):
                if header in p.valid:
                    then_run(p)
                else:
                    else_run(p)

            return if_valid
        # Any other condition is evaluated on every packet: it may be
        # what rejects the packet (an unbound ``ParamRef``).
        test = value(condition)
        if then_run is None and else_run is None:
            return lambda p: test(p, ())
        if else_run is None:
            def when(p):
                if test(p, ()):
                    then_run(p)

            return when
        if then_run is None:
            def unless(p):
                if not test(p, ()):
                    else_run(p)

            return unless

        def if_else(p):
            if test(p, ()):
                then_run(p)
            else:
                else_run(p)

        return if_else

    def apply(node: Apply) -> Callable[[Frame], None]:
        table = program.tables[node.table]
        table_name = table.name
        on_hit = None if node.on_hit is None else control(node.on_hit)
        on_miss = None if node.on_miss is None else control(node.on_miss)
        default_name, default_args = config.default_for(table)
        default_run = bound(default_name, default_args)
        default_step = ExecutionStep(table_name, default_name, False)

        if not table.keys:
            def miss(p):
                if default_run is not None:
                    default_run(p, default_args)
                p.steps.append(default_step)
                if on_miss is not None:
                    on_miss(p)

            return miss
        hit_steps = {}

        def hit(entry):
            """What a hit on ``entry`` runs: (closure, data, step)."""
            name = entry.action
            step = hit_steps.get(name)
            if step is None:
                step = hit_steps[name] = ExecutionStep(table_name, name, True)
            return bound(name, entry.action_args), entry.action_args, step

        widths = [program.field_width(k.field) for k in table.keys]
        match = compile_table(
            table, widths, config.entries_for(table_name), hit
        ).match
        keys = tuple((k.field.header, k.field.field) for k in table.keys)
        key_headers = frozenset(header for header, _name in keys) - metadata
        single = len(keys) == 1
        key_header, key_name = keys[0]

        def lookup(p):
            found = None
            # A key whose header is invalid cannot match any entry.
            if single:
                if key_header in p.valid:
                    found = match(p.headers[key_header].get(key_name, 0))
            elif key_headers <= p.valid:
                headers = p.headers
                found = match(
                    tuple([headers[h].get(name, 0) for h, name in keys])
                )
            if found is None:
                if default_run is not None:
                    default_run(p, default_args)
                p.steps.append(default_step)
                if on_miss is not None:
                    on_miss(p)
            else:
                run, args, step = found
                if run is not None:
                    run(p, args)
                p.steps.append(step)
                if on_hit is not None:
                    on_hit(p)

        return lookup

    ingress, egress = control(program.ingress), control(program.egress)
    standard = act.DROP_FLAG.header
    drop_flag, to_controller = act.DROP_FLAG.field, act.TO_CONTROLLER.field

    def run(p):
        if ingress is not None:
            ingress(p)
        flags = p.headers[standard]
        if not (flags.get(drop_flag, 0) or flags.get(to_controller, 0)):
            egress(p)

    if egress is None:
        run = ingress or (lambda p: None)
    packet_headers = {inst.name for inst in program.packet_headers()}
    return Plan(run, frozenset(written & packet_headers))
