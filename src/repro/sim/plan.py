"""Per-program execution plan: the engine's replay, emitted as Python.

:func:`build_plan` binds a switch to one generated function per sink
kind (a *tail*), emitted on the kind's first batch: the batch loop with
every table probe, action primitive, hash and register access of both
control trees inside it.  The step-sink tail keeps each metadata field
in a local and shares the parse template's header dicts but those the
program writes in place; the full-result tail keeps metadata dicts, the
write log and the deparse, because its results hand the headers out.
What the config fixes (compiled tables, default actions) and the
registers are bound as constants, never spelled in the source, so each
distinct source is compiled once per process (a bounded memo) and
registered with :mod:`linecache` as ``<plan DIGEST>`` for tracebacks.
Names from the program enter the source only as ``repr()`` literals.
The reference walk (``_reference_replay``, :mod:`repro.sim.action_interp`)
shares no code with it and stays its oracle.  What is bound and what is
looked up per packet: DESIGN.md §5, "Execution plan".
``BehavioralSwitch.invalidate_caches`` drops a plan.
"""

from __future__ import annotations

import hashlib
import linecache
import threading
import zlib
from collections import OrderedDict
from typing import Callable, Dict, List

from repro.exceptions import SimulationError
from repro.p4 import actions as act
from repro.p4 import expressions as ex
from repro.p4.control import Apply, If, Seq
from repro.p4.types import CPU_PORT, DROP_PORT, bytes_for_bits, mask
from repro.sim.events import ExecutionStep
from repro.sim.hashing import ALGORITHMS, CRC_SEEDS, compute_hash, crc_start
from repro.sim.match import compile_table

#: Indentation past which a control subtree becomes a function of its
#: own: CPython refuses source nested about 100 levels deep.
MAX_DEPTH = 40

#: Distinct sources kept compiled; the oldest is dropped first.
_MEMO_SIZE = 64
_memo: "OrderedDict[str, tuple]" = OrderedDict()
_memo_lock = threading.Lock()


def _fail(error: type, message: str):
    """What the walker, too, only raises when a packet reaches it."""
    raise error(message)


def _compiled(source: str):
    """``source``'s code object, compiled on its first ask."""
    with _memo_lock:
        found = _memo.get(source)
        if found is None:
            digest = hashlib.sha1(source.encode()).hexdigest()[:12]
            filename = f"<plan {digest}>"
            code = compile(source, filename, "exec")
            found = _memo[source] = (code, filename)
            if len(_memo) > _MEMO_SIZE:
                linecache.cache.pop(_memo.popitem(last=False)[1][1], None)
        else:
            _memo.move_to_end(source)
        code, filename = found
        linecache.cache[filename] = (
            len(source), None, source.splitlines(True), filename
        )
    return code


class Plan(dict):
    """A switch's emitted replays: ``plan[steps_only]`` is ``f(packets,
    templates, port, sink)``, the batch loop for a
    :class:`~repro.sim.switch.StepSink` (``steps_only``) or a list of
    results, emitted on its first ask."""

    def __init__(self, switch):
        super().__init__()
        self.switch = switch

    def __missing__(self, steps_only: bool) -> Callable:
        tail = self[steps_only] = _Emitter(self.switch, steps_only).function()
        return tail


def build_plan(switch) -> Plan:
    """The plan of ``switch.program`` over ``switch.config``."""
    return Plan(switch)


class _Emitter:
    """One tail's source and its constants.  Generated names: ``_k<n>``
    constants, ``_t<n>`` temporaries, ``_m<n>`` metadata fields (step
    tail), ``_d<n>`` metadata dicts (full tail), ``_f<n>`` subtrees."""

    def __init__(self, switch, steps_only: bool):
        self.program, self.state = switch.program, switch.state
        self.config, self.steps_only = switch.config, steps_only
        self.namespace: Dict[str, object] = {
            "parse": switch._parse, "result": switch._result, "fail": _fail,
            "hash_error": compute_hash, "crc32": zlib.crc32,
            "read_register": switch.state.read,
            "write_register": switch.state.write,
        }
        self.metadata = {
            inst.name: self.program.header_type_of(inst.name).field_names()
            for inst in self.program.metadata_headers()
        }
        # Full tail: a dict per metadata header; step: a local per field.
        self.dicts = {name: f"_d{i}" for i, name in enumerate(self.metadata)}
        self.locals = {key: f"_m{i}" for i, key in enumerate(
            (header, name)
            for header, fields in self.metadata.items() for name in fields
        )}
        self.lines: List[str] = []
        self.depth = self.temps = self.constants = 0
        self.functions: List[List[str]] = []
        #: Packet headers written in place, and whether any header is
        #: added or removed: what a step tail must copy.
        self.writes: Dict[str, None] = {}
        self.reshapes = False

    # -- names ---------------------------------------------------------
    def bind(self, value) -> str:
        name = f"_k{self.constants}"
        self.constants += 1
        self.namespace[name] = value
        return name

    def temp(self) -> str:
        self.temps += 1
        return f"_t{self.temps}"

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.depth + line)

    def block(self, emit_body) -> List[str]:
        """The lines ``emit_body()`` emits one level deeper."""
        outer, self.lines = self.lines, []
        self.depth += 1
        emit_body()
        self.depth -= 1
        lines, self.lines = self.lines, outer
        return lines

    def fail(self, message: str) -> str:
        return f"fail(*{self.bind((SimulationError, message))})"

    # -- expressions ---------------------------------------------------
    def field(self, ref: ex.FieldRef, guarded: bool = False) -> str:
        """A read; invalid-header reads yield 0 (bmv2 convention)."""
        if ref.header in self.metadata:
            if self.steps_only:
                return self.locals[ref.header, ref.field]
            return f"{self.dicts[ref.header]}.get({ref.field!r}, 0)"
        read = f"headers[{ref.header!r}].get({ref.field!r}, 0)"
        if guarded:
            return read
        return f"({read} if {ref.header!r} in valid else 0)"

    def value(self, expr, params=(), args: str = "") -> str:
        """``expr`` as an int-valued Python expression; booleans are 0/1."""
        if isinstance(expr, ex.FieldRef):
            return self.field(expr)
        if isinstance(expr, ex.Const):
            return repr(expr.value) if expr.value >= 0 else f"({expr.value})"
        if isinstance(expr, ex.ParamRef):
            if expr.name in params:
                return f"{args}[{params.index(expr.name)}]"
            return self.fail(
                f"action parameter {expr.name!r} has no bound value"
            )
        if isinstance(expr, ex.RegisterSize):
            if expr.register in self.state._arrays:
                return self.bind(self.state.register_size(expr.register))
            return f"{self.bind(self.state.register_size)}({expr.register!r})"
        if isinstance(expr, ex.BinOp) and not expr.is_comparison:
            left = self.value(expr.left, params, args)
            return f"({left} {expr.op} {self.value(expr.right, params, args)})"
        if isinstance(expr, ex.ValidExpr) and expr.header in self.metadata:
            return "1"
        if isinstance(expr, (ex.BinOp, ex.ValidExpr, ex.LNot, ex.LAnd,
                             ex.LOr)):
            return f"(1 if {self.test(expr, params, args)} else 0)"
        return self.fail(f"unknown expression node {expr!r}")

    def test(self, expr, params=(), args: str = "") -> str:
        """``expr`` as a condition; ``and`` / ``or`` short-circuit as
        the walker's ``LAnd`` / ``LOr`` do."""
        if isinstance(expr, ex.ValidExpr):
            if expr.header in self.metadata:
                return "True"
            return f"({expr.header!r} in valid)"
        if isinstance(expr, ex.LNot):
            return f"(not {self.test(expr.operand, params, args)})"
        if isinstance(expr, (ex.LAnd, ex.LOr)):
            joiner = " and " if isinstance(expr, ex.LAnd) else " or "
            sides = (self.test(side, params, args)
                     for side in (expr.left, expr.right))
            return f"({joiner.join(sides)})"
        if isinstance(expr, ex.BinOp) and expr.is_comparison:
            left = self.value(expr.left, params, args)
            return f"({left} {expr.op} {self.value(expr.right, params, args)})"
        return self.value(expr, params, args)

    # -- actions -------------------------------------------------------
    def assign(self, ref: ex.FieldRef, source, params=(), args="") -> None:
        """Truncating write of ``source`` — an expression, or the text
        of one — to ``ref``.  A packet-header write is logged, and on an
        invalid header creates the field dict but not validity."""
        width_mask = mask(self.program.field_width(ref))
        if isinstance(source, ex.Const):
            text = repr(source.value & width_mask)
        else:
            if not isinstance(source, str):
                source = self.value(source, params, args)
            text = f"{source} & {width_mask}"
        if ref.header in self.metadata:
            if self.steps_only:
                self.emit(f"{self.locals[ref.header, ref.field]} = {text}")
            else:
                self.emit(f"{self.dicts[ref.header]}[{ref.field!r}] = {text}")
            return
        self.writes[ref.header] = None
        self.emit(f"headers.setdefault({ref.header!r}, {{}})"
                  f"[{ref.field!r}] = {text}")
        if not self.steps_only:
            self.emit(f"log.add({ref.header!r})")

    def register(self, name: str, index: str, value: str = "") -> str:
        """Cell ``index`` (a temporary) of register ``name``; out of range,
        ``SwitchState.read`` / ``write`` raises its own error."""
        array = self.state._arrays.get(name)
        call = (f"{'write' if value else 'read'}_register({name!r}, {index}"
                f"{value and ', '}{value})")
        if array is None:
            self.emit(call)
            return ""
        self.emit(f"if not 0 <= {index} < {self.bind(len(array))}: {call}")
        return f"{self.bind(array)}[{index}]"

    def digest(self, prim: act.HashFields, params, args) -> str:
        """``prim``'s hash, its inputs packed into one integer first: every
        field value is masked to its width."""
        divisor = self.value(prim.modulo, params, args)
        if prim.algorithm not in ALGORITHMS:
            self.emit(f"hash_error({prim.algorithm!r}, (), {divisor})")
            return ""
        if not (isinstance(prim.modulo, ex.Const) and prim.modulo.value > 0):
            modulo, divisor = divisor, self.temp()
            self.emit(f"{divisor} = {modulo}")
            self.emit(f"if {divisor} <= 0: "
                      f"hash_error({prim.algorithm!r}, (), {divisor})")
        packed, shift = [], 0
        for ref in reversed(prim.inputs):
            read = self.field(ref)
            packed.append(f"({read} << {shift})" if shift else read)
            shift += 8 * bytes_for_bits(self.program.field_width(ref))
        data = (
            f"({' | '.join(reversed(packed))}).to_bytes({shift // 8}, 'big')"
            if packed else "b''"
        )
        seed = CRC_SEEDS.get(prim.algorithm)
        if seed is not None:
            return f"crc32({data}, {crc_start(seed)}) % {divisor}"
        return f"{self.bind(ALGORITHMS[prim.algorithm])}({data}) % {divisor}"

    def action(self, definition: act.Action, args: str) -> None:
        for prim in definition.primitives:
            self.primitive(prim, definition.parameters, args)

    def primitive(self, prim, params, args: str) -> None:
        if isinstance(prim, act.ModifyField):
            self.assign(prim.dst, prim.src, params, args)
        elif isinstance(prim, (act.AddToField, act.SubtractFromField)):
            op = "+" if isinstance(prim, act.AddToField) else "-"
            self.assign(
                prim.dst, ex.BinOp(op, prim.dst, prim.src), params, args
            )
        elif isinstance(prim, act.Drop):
            self.assign(act.EGRESS_PORT, ex.Const(DROP_PORT))
            self.assign(act.DROP_FLAG, ex.Const(1))
        elif isinstance(prim, act.SetEgressPort):
            self.assign(act.EGRESS_PORT, prim.port, params, args)
        elif isinstance(prim, act.SendToController):
            self.assign(act.EGRESS_PORT, ex.Const(CPU_PORT))
            self.assign(act.TO_CONTROLLER, ex.Const(1))
            self.assign(act.CONTROLLER_REASON, ex.Const(prim.reason))
        elif isinstance(prim, act.RegisterRead):
            index = self.temp()
            self.emit(f"{index} = {self.value(prim.index, params, args)}")
            cell = self.register(prim.register, index)
            if cell:
                self.assign(prim.dst, cell)
        elif isinstance(prim, act.RegisterWrite):
            # Index, then value: the order their errors surface in.
            index, cell = self.temp(), self.temp()
            self.emit(f"{index} = {self.value(prim.index, params, args)}")
            self.emit(f"{cell} = {self.value(prim.value, params, args)}")
            target = self.register(prim.register, index, cell)
            if target:
                width = self.state._widths[prim.register]
                self.emit(f"{target} = {cell} & {mask(width)}")
        elif isinstance(prim, act.MinOf):
            left = self.value(prim.left, params, args)
            right = self.value(prim.right, params, args)
            self.assign(prim.dst, f"min({left}, {right})")
        elif isinstance(prim, act.HashFields):
            reduced = self.digest(prim, params, args)
            if reduced:
                self.assign(prim.dst, reduced)
        elif isinstance(prim, act.AddHeader):
            # Zero-filled, and logged like any other write.
            names = self.program.header_type_of(prim.header).field_names()
            self.reshapes = True
            self.emit(f"valid.add({prim.header!r})")
            self.emit(f"headers[{prim.header!r}] = "
                      f"{ {name: 0 for name in names}!r}")
            if not self.steps_only:
                self.emit(f"log.add({prim.header!r})")
        elif isinstance(prim, act.RemoveHeader):
            self.reshapes = True
            self.emit(f"valid.discard({prim.header!r})")
            self.emit(f"headers.pop({prim.header!r}, None)")
        elif not isinstance(prim, act.NoOp):
            self.emit(self.fail(f"unknown primitive {prim!r}"))

    # -- control -------------------------------------------------------
    def control(self, node) -> None:
        if self.depth > MAX_DEPTH:
            self.split(node)
        elif isinstance(node, Seq):
            for child in node.nodes:
                self.control(child)
        elif isinstance(node, If):
            self.branch(node)
        elif isinstance(node, Apply):
            self.apply(node)
        else:
            self.emit(self.fail(f"unknown control node {node!r}"))

    def split(self, node) -> None:
        """``node`` as a function of its own, called with every local a
        traversal reads or writes; a step tail's metadata locals come
        back as its result."""
        outer, depth = self.lines, self.depth
        self.lines, self.depth = [], 1
        self.control(node)
        body, self.lines, self.depth = self.lines, outer, depth
        if not body:
            return
        if self.steps_only:
            state = ", ".join(self.locals.values()) + ","
        else:
            state = ", ".join(["log", *self.dicts.values()])
        call = f"_f{len(self.functions)}(headers, valid, steps, {state})"
        self.functions.append([f"def {call}:", *body])
        if self.steps_only:
            self.functions[-1].append(f"    return {state}")
            call = f"{state} = {call}"
        self.emit(call)

    def branch(self, node: If) -> None:
        then_lines = self.block(lambda: self.control(node.then_node))
        else_lines = (
            self.block(lambda: self.control(node.else_node))
            if node.else_node is not None else []
        )
        condition = node.condition
        negated = isinstance(condition, ex.LNot)
        if not (then_lines or else_lines) and isinstance(
            condition.operand if negated else condition, ex.ValidExpr
        ):
            # A set test cannot fail: a branch with nothing to run is
            # not taken at all.  Any other condition may be what
            # rejects the packet (an unbound ``ParamRef``).
            return
        self.choose(self.test(condition), then_lines, else_lines)

    def choose(self, test: str, then_lines, else_lines) -> None:
        """``if test`` over the two blocks, leaving out what is empty;
        with both empty, ``test`` is still evaluated."""
        if not then_lines:
            if not else_lines:
                self.emit(test)
                return
            test, then_lines, else_lines = f"not {test}", else_lines, []
        self.emit(f"if {test}:")
        self.lines.extend(then_lines)
        if else_lines:
            self.emit("else:")
            self.lines.extend(else_lines)

    def apply(self, node: Apply) -> None:
        """A table: its probe, the action a hit or miss binds (id,
        action data, step) dispatched by id, then on_hit / on_miss."""
        program, config = self.program, self.config
        table = program.tables[node.table]
        entries = config.entries_for(table.name)
        default = config.default_for(table)
        names = list(table.all_action_names())
        for name in [default[0], *(e.action for e in entries)]:
            if name not in names and name in program.actions:
                names.append(name)
        steps = {}

        def bound(name, args, hit=True):
            """(id, action data, step); an action the walker would reject
            binds id -1 and the error the walker raises."""
            step = steps.setdefault(
                (name, hit), ExecutionStep(table.name, name, hit)
            )
            definition = program.actions.get(name)
            if definition is None:
                return -1, (KeyError, name), step
            arity = len(definition.parameters)
            if len(args) != arity:
                return -1, (SimulationError, f"action {name!r} takes "
                            f"{arity} args, got {len(args)}"), step
            return names.index(name), args, step

        default = self.bind(bound(*default, hit=False))
        action, data, step = self.temp(), self.temp(), self.temp()
        found = None
        if not table.keys:
            self.emit(f"{action}, {data}, {step} = {default}")
        else:
            widths = [program.field_width(k.field) for k in table.keys]
            match = self.bind(compile_table(
                table, widths, entries,
                lambda entry: bound(entry.action, entry.action_args),
            ).match)
            keys = [self.field(k.field, guarded=True) for k in table.keys]
            key = keys[0] if len(keys) == 1 else f"({', '.join(keys)},)"
            # A key whose header is invalid cannot match any entry.
            guards = [
                f"{header!r} in valid" for header in dict.fromkeys(
                    k.field.header for k in table.keys
                ) if header not in self.metadata
            ]
            found = self.temp()
            probe = f"{match}({key})"
            if guards:
                probe = f"{probe} if {' and '.join(guards)} else None"
            self.emit(f"{found} = {probe}")
            self.emit(f"{action}, {data}, {step} = {found} or {default}")
        keyword = "if"
        for i, name in enumerate(names):
            body = self.block(lambda: self.action(program.actions[name], data))
            if body:
                self.emit(f"{keyword} {action} == {i}:")
                self.lines.extend(body)
                keyword = "elif"
        self.emit(f"{keyword} {action} < 0:")
        self.emit(f"    fail(*{data})")
        self.emit(f"steps.append({step})")
        if not found:
            # A keyless table always misses.
            if node.on_miss is not None:
                self.control(node.on_miss)
            return
        on_hit, on_miss = (
            self.block(lambda: self.control(branch))
            if branch is not None else []
            for branch in (node.on_hit, node.on_miss)
        )
        if on_hit or on_miss:
            self.choose(f"{found} is not None", on_hit, on_miss)

    # -- the batch loop ------------------------------------------------
    def function(self) -> Callable:
        program, steps_only = self.program, self.steps_only
        self.depth = 2  # def, for
        self.control(program.ingress)
        egress = self.block(lambda: self.control(program.egress))
        body, self.lines = self.lines, [
            "def replay(packets, templates, port, sink):",
            *(["    paths, distinct = sink.paths, sink._distinct",
               "    decide = sink.decisions.append"] if steps_only
              else ["    append = sink.append"]),
            "    for entry, template in zip(packets, templates):",
            "        if isinstance(entry, tuple):",
            "            data, ingress = entry",
            "        else:",
            "            data, ingress = entry, port",
        ]
        # The packet's parse: its own, or the template's — whole on a
        # full tail or when a header is added or removed; else, on a
        # step tail, the template's dicts but those written in place.
        if not steps_only or self.reshapes:
            self.emit("parsed = parse(data) if template is None "
                      "else template.fresh()")
            self.emit("headers, valid = parsed.headers, parsed.valid")
        else:
            self.emit("if template is None:")
            self.emit("    parsed = parse(data)")
            self.emit("    headers, valid = parsed.headers, parsed.valid")
            self.emit("else:")
            self.emit("    headers, valid = template.headers, template.valid")
            if self.writes:
                self.emit("    headers = headers.copy()")
            for header in self.writes:
                self.emit(f"    if {header!r} in headers:")
                self.emit(f"        headers[{header!r}] = "
                          f"headers[{header!r}].copy()")
        ingress_port = (act.INGRESS_PORT.header, act.INGRESS_PORT.field)
        port = f"ingress & {mask(program.field_width(act.INGRESS_PORT))}"
        if steps_only:
            zeroed = [name for key, name in self.locals.items()
                      if key != ingress_port]
            self.emit(f"{self.locals[ingress_port]} = {port}")
            self.emit(f"{' = '.join(zeroed)} = 0")
        else:
            for header, name in self.dicts.items():
                fresh = "{}"
                if header == ingress_port[0]:
                    fresh = f"{{{ingress_port[1]!r}: {port}}}"
                self.emit(f"{name} = headers[{header!r}] = {fresh}")
            self.emit(f"valid.update({tuple(self.dicts)!r})")
            self.emit("log = set()")
        self.emit("steps = []")
        self.lines.extend(body)
        drop, punt, port = (
            self.field(ref)
            for ref in (act.DROP_FLAG, act.TO_CONTROLLER, act.EGRESS_PORT)
        )
        if egress:
            self.emit(f"if not ({drop} or {punt}):")
            self.lines.extend(egress)
        if steps_only:
            self.emit("key = tuple(steps)")
            self.emit("paths[key] = paths.get(key, 0) + 1")
            self.emit(f"decision = ({port}, {drop} != 0, {punt} != 0)")
            self.emit("decide(distinct.setdefault(decision, decision))")
        else:
            self.emit("append(result(parsed, data, steps, log))")
        source = "\n".join(
            line for function in [self.lines, *self.functions]
            for line in function
        ) + "\n"
        exec(_compiled(source), self.namespace)
        return self.namespace["replay"]
