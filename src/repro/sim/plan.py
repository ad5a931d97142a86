"""Per-program execution plan: the engine's parser and replay, emitted
as Python.

:func:`build_parser` emits a program's parser, whose template of a
packet holds one integer (a *word*) per extracted header.
:func:`build_plan` binds a switch to one generated function per sink
kind (a *tail*), bound on the kind's first batch: the batch loop with
every table probe, action primitive, hash and register access of both
control trees inside it.  Both tails run one body over the words: each
metadata field, each packet field the program writes and each field of
a header it adds is a local, and every other field is read out of its
word.  Only their last lines differ: the step tail keeps the step log
and the decision, and the result tail also deparses, rebuilding each
written header's word from its locals.

A tail is emitted once per content key — program fingerprint, config
fingerprint, sink kind and register shape (each register's name and
length) — and kept in a bounded process-wide memo.  What the config
fixes (compiled tables, default actions, miss steps) and what the shape
fixes (register lengths) are content: bound as constants, shared by
every switch on the key, and never spelled in the source.  What a
switch owns is marked when emitted and read off each switch the tail is
bound to: its parser's ``parse``, its ``_result``, its registers'
arrays, ``read`` / ``write`` and ``register_size``.  Binding a switch
to a memoized tail runs the shared code object in a namespace of its
own, so two switches on one tail keep separate registers.  Each
distinct source is compiled once per process (a second bounded memo)
and registered with :mod:`linecache` as ``<plan DIGEST>`` for
tracebacks, again whenever a switch is bound to it.  Names from the
program enter the source only as ``repr()`` literals.
The reference walk (``_reference_replay``, :mod:`repro.sim.action_interp`)
and ``parse_packet`` / ``deparse_packet`` share no code with it and stay
its oracles.  What is bound and what is looked up per packet: DESIGN.md
§5, "Execution plan".  ``BehavioralSwitch.invalidate_caches`` drops a
switch's plan; its next batch binds the tail of the config's new key.
"""

from __future__ import annotations

import functools
import hashlib
import linecache
import threading
import zlib
from collections import OrderedDict
from operator import attrgetter
from types import CodeType
from typing import Callable, Dict, Hashable, List, NamedTuple, Tuple

from repro.exceptions import SimulationError
from repro.p4 import actions as act
from repro.p4 import expressions as ex
from repro.p4.control import Apply, If, Seq
from repro.p4.dsl.printer import program_fingerprint
from repro.p4.parser_spec import ACCEPT
from repro.p4.types import CPU_PORT, DROP_PORT, bytes_for_bits, mask, pinned
from repro.packets.packet import get_codec
from repro.sim.events import ExecutionStep
from repro.sim.hashing import ALGORITHMS, CRC_SEEDS, compute_hash, crc_start
from repro.sim.match import compile_table
from repro.sim.runtime import config_fingerprint

#: Indentation past which a control subtree becomes a function of its
#: own: CPython refuses source nested about 100 levels deep.
MAX_DEPTH = 40

#: Distinct sources kept compiled, and emitted tails kept by content
#: key; the oldest of each is dropped first.
_MEMO_SIZE = 64
_memo: "OrderedDict[str, Tuple[CodeType, List[str]]]" = OrderedDict()
_plans: "OrderedDict[tuple, _Emitted]" = OrderedDict()
_memo_lock = threading.Lock()

#: What a tail reads off the switch it is bound to, by global name
#: (:meth:`_Emitter.bind_own` marks the rest: register arrays and
#: ``register_size``).
_OWN = {
    "parse": attrgetter("_parser.parse"),
    "result": attrgetter("_result"),
    "read_register": attrgetter("state.read"),
    "write_register": attrgetter("state.write"),
}


def _fail(error: type, message: str):
    """What the walker, too, only raises when a packet reaches it."""
    raise error(message)


def _too_short(length: int, state: str, width: int, header: str, offset):
    raise SimulationError(
        f"packet too short: state {state!r} needs {width} bytes for "
        f"{header!r}, {length - offset} remain"
    )


def _register(code: CodeType, lines: List[str]) -> None:
    """Show ``lines``, ``code``'s source, for its frames in tracebacks."""
    linecache.cache[code.co_filename] = (
        sum(map(len, lines)), None, lines, code.co_filename
    )


def _compiled(source: str) -> Tuple[CodeType, List[str]]:
    """``source``'s code object and lines, compiled on its first ask."""
    with _memo_lock:
        found = _memo.get(source)
        if found is None:
            digest = hashlib.sha1(source.encode()).hexdigest()[:12]
            found = _memo[source] = (
                compile(source, f"<plan {digest}>", "exec"),
                source.splitlines(True),
            )
            if len(_memo) > _MEMO_SIZE:
                evicted = _memo.popitem(last=False)[1][0]
                linecache.cache.pop(evicted.co_filename, None)
        else:
            _memo.move_to_end(source)
        _register(*found)
    return found


class _Emitted(NamedTuple):
    """One emitted tail, shared by every switch on its content key: the
    code, its source lines, the content constants, and how each switch's
    own constants are read off it."""

    code: CodeType
    lines: List[str]
    shared: Dict[str, object]
    own: Dict[str, Callable]

    def bind(self, switch) -> Callable:
        """The tail over ``switch``'s own parser, results and registers."""
        namespace = dict(self.shared)
        for name, own in self.own.items():
            namespace[name] = own(switch)
        exec(self.code, namespace)
        return namespace["replay"]


class Plan(dict):
    """A switch's emitted replays: ``plan[steps_only]`` is ``f(packets,
    templates, port, sink)``, the batch loop for a
    :class:`~repro.sim.switch.StepSink` (``steps_only``) or a list of
    results, bound on its first ask to the tail of its content key,
    which is emitted when no switch had it."""

    def __init__(self, switch):
        super().__init__()
        self.switch = switch

    def __missing__(self, steps_only: bool) -> Callable:
        switch = self.switch
        key = (
            program_fingerprint(switch.program),
            config_fingerprint(switch.config),
            steps_only,
            tuple((name, len(array))
                  for name, array in switch.state._arrays.items()),
        )
        with _memo_lock:
            emitted = _plans.get(key)
            if emitted is not None:
                _plans.move_to_end(key)
                _register(emitted.code, emitted.lines)
        if emitted is None:
            emitted = _Emitter(switch).function(steps_only)
            with _memo_lock:
                _plans[key] = emitted
                if len(_plans) > _MEMO_SIZE:
                    _plans.popitem(last=False)
        tail = self[steps_only] = emitted.bind(switch)
        return tail


def build_plan(switch) -> Plan:
    """The plan of ``switch.program`` over ``switch.config``."""
    return Plan(switch)


def _bits(slot: int, header_type, name: str) -> str:
    """Field ``name`` out of the word ``_w<slot>``, by the engine's codec."""
    shift, fmask = get_codec(header_type).fields[name]
    return f"_w{slot} >> {shift} & {fmask}" if shift else f"_w{slot} & {fmask}"


class Parser(NamedTuple):
    """``parse(data)`` is a packet's template (``ParseTemplate``) or
    ``parse_packet``'s error.  ``slots``: each extracted header's word
    index; ``key``: all the parser reads, and the packet header order
    its templates' ``ident`` flags depend on, as content."""

    parse: Callable
    slots: Dict[str, int]
    key: Hashable


def build_parser(program) -> Parser:
    """``program``'s parser, emitted once per parse key per process and
    pinned on the program value, so a switch does not rebuild the key."""
    return pinned(program, "_parse", _build_parser)


def _build_parser(program) -> Parser:
    parser = program.parser
    if parser is None:
        return Parser(functools.partial(_fail, SimulationError, (
            f"program {program.name!r} has no parser; cannot parse packets"
        )), {}, None)
    packet = program.packet_headers()
    return _emitted_parser((parser.start, tuple(
        inst.name for inst in packet
    ), tuple(
        (inst.name, program.header_types[inst.header_type])
        for inst in packet if inst.auto_valid
    ), tuple(
        (name, tuple((h, program.header_type_of(h)) for h in state.extracts),
         state.select, tuple(state.transitions.items()), state.default)
        for name, state in parser.states.items()
    )))


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _emitted_parser(key) -> Parser:
    return _ParserEmitter(key).parser()


class _Source:
    """Emitted lines, the functions split off them, and the constants
    they bind (``_k<n>``)."""

    def __init__(self, namespace: Dict[str, object]):
        self.namespace = namespace
        self.lines: List[str] = []
        self.functions: List[List[str]] = []
        self.depth = self.constants = 0

    def constant(self) -> str:
        name = f"_k{self.constants}"
        self.constants += 1
        return name

    def bind(self, value) -> str:
        name = self.constant()
        self.namespace[name] = value
        return name

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.depth + line)

    def fail(self, message: str) -> str:
        return f"fail(*{self.bind((SimulationError, message))})"

    def block(self, emit_body) -> List[str]:
        """The lines ``emit_body()`` emits one level deeper."""
        outer, self.lines = self.lines, []
        self.depth += 1
        emit_body()
        self.depth -= 1
        lines, self.lines = self.lines, outer
        return lines

    def nested(self, emit_body) -> List[str]:
        """The lines ``emit_body()`` emits as the body of a function of
        their own: CPython refuses source nested about 100 levels deep."""
        outer, depth, self.lines, self.depth = self.lines, self.depth, [], 1
        emit_body()
        lines, self.lines, self.depth = self.lines, outer, depth
        return lines

    def source(self) -> str:
        return "\n".join(
            line for function in [self.lines, *self.functions]
            for line in function
        ) + "\n"

    def load(self, *names: str) -> list:
        exec(_compiled(self.source())[0], self.namespace)
        return [self.namespace[name] for name in names]


class _ParserEmitter(_Source):
    """The parse graph as nested code, one ``return`` per root-to-accept
    path: ``ParserSpec.validate`` rejects cycles and every header has a
    fixed width, so each path's offsets, valid set and ``ident`` flag
    are constants.  ``_w<n>`` holds slot ``n``'s word."""

    def __init__(self, key):
        super().__init__({"fail": _fail, "too_short": _too_short,
                          "word": int.from_bytes})
        self.key, (self.start, self.order, self.auto, states) = key, key
        self.states = {state[0]: state[1:] for state in states}
        self.types = dict(self.auto)
        self.slots: Dict[str, int] = {}
        for extracts, *_ in self.states.values():
            for header, header_type in extracts:
                self.types[header] = header_type
                self.slots.setdefault(header, len(self.slots))

    def words(self, path=None) -> str:
        """Every slot's word, or 0 where ``path`` extracts none."""
        return "".join(f", _w{n}" if path is None or header in path
                       else ", 0" for header, n in self.slots.items())

    def ident(self, path: tuple) -> bool:
        """Whether a path deparses as it parsed: its valid packet headers,
        in program order, are the headers it extracted, each once, in
        extraction order, and none is padded.  Then an unwritten packet's
        output is its input."""
        auto = dict(self.auto)
        deparsed = tuple(h for h in self.order if h in path or h in auto)
        return deparsed == path and not any(
            self.types[h].bit_width % 8 for h in path)

    def state(self, name: str, offset: int, path: tuple) -> None:
        if self.depth > MAX_DEPTH:
            self.split(name, offset, path)
            return
        if name == ACCEPT:
            valid = self.bind(frozenset(path).union(dict(self.auto)))
            self.emit(f"return ({valid}, {self.ident(path)}, {offset}"
                      f"{self.words(path)})")
            return
        extracts, select, transitions, default = self.states[name]
        for header, header_type in extracts:
            width = header_type.byte_width
            short = self.bind((name, width, header, offset))
            end = offset + width
            self.emit(f"if n < {end}: too_short(n, *{short})")
            self.emit(f"_w{self.slots[header]} = word(data[{offset}:{end}], "
                      "'big')")
            path, offset = (*path, header), end
        if select is not None and select.header not in path:
            self.emit(self.fail(f"parser state {name!r} selects on "
                                f"{select.path!r} before extracting "
                                f"{select.header!r}"))
            return
        if select is not None and transitions:
            header = select.header
            self.emit("v = " + _bits(self.slots[header], self.types[header],
                                     select.field))
            for value, target in transitions:
                self.emit(f"if v == {value!r}:")
                self.lines += self.block(
                    lambda: self.state(target, offset, path))
        self.state(default, offset, path)

    def split(self, name: str, offset: int, path: tuple) -> None:
        """The rest of the path as a function of its own."""
        body = self.nested(lambda: self.state(name, offset, path))
        index = len(self.functions)
        self.functions.append([f"def _s{index}(data, n{self.words()}):",
                               *body])
        self.emit(f"return _s{index}(data, n{self.words(path)})")

    def parser(self) -> Parser:
        self.depth = 1
        self.lines.append("def parse(data):")
        self.emit("n = len(data)")
        self.state(self.start, 0, ())
        return Parser(*self.load("parse"), self.slots, self.key)


class _Emitter(_Source):
    """One content key's tail source, its content constants and the
    constants each switch gives its own value (:attr:`own`).  Generated
    names: ``_k<n>`` constants, ``_t<n>`` temporaries, ``_m<n>`` per-packet
    locals (metadata fields, packet fields the program writes, every
    field of a header it adds), ``_w<n>`` header words, ``_o<n>`` a
    written header's rebuilt word, ``_f<n>`` subtrees."""

    def __init__(self, switch):
        parser = switch._parser
        super().__init__({
            "fail": _fail, "hash_error": compute_hash, "crc32": zlib.crc32,
            "join": b"".join,
        })
        self.own: Dict[str, Callable] = dict(_OWN)
        program = self.program = switch.program
        self.state, self.config = switch.state, switch.config
        self.slots = parser.slots
        self.temps = 0
        self.metadata = {
            inst.name: program.header_type_of(inst.name).field_names()
            for inst in program.metadata_headers()
        }
        # What the program's actions may write.  A program that adds or
        # removes a header copies its valid set per packet, and an added
        # header starts at 0 in locals of its own.
        actions = program.actions.values()
        added = {h for a in actions for h in a.headers_added()}
        self.removed = {h for a in actions for h in a.headers_removed()}
        self.reshapes = bool(added or self.removed)
        written = {(ref.header, ref.field) for a in actions
                   for ref in a.writes() if ref.header not in self.metadata}
        written.update((h, name) for h in added
                       for name in program.header_type_of(h).field_names())
        keys = [(header, name) for header, fields in self.metadata.items()
                for name in fields]
        keys += sorted(written)
        self.locals = {key: f"_m{i}" for i, key in enumerate(keys)}
        self.word_names = "".join(f", _w{n}" for n in self.slots.values())
        self.shared = f"valid, steps{self.word_names}"

    # -- names ---------------------------------------------------------
    def word(self, header: str, name: str) -> str:
        """A packet field out of its header's word; 0 where no path
        extracts the header."""
        slot, header_type = (self.slots.get(header),
                             self.program.header_type_of(header))
        if slot is None or not header_type.has_field(name):
            return "0"
        return _bits(slot, header_type, name)

    def temp(self) -> str:
        self.temps += 1
        return f"_t{self.temps}"

    def bind_own(self, own: Callable) -> str:
        """A constant each switch the tail is bound to gives its own
        value: ``own(switch)``."""
        name = self.constant()
        self.own[name] = own
        return name

    # -- expressions ---------------------------------------------------
    def field(self, ref: ex.FieldRef, guarded: bool = False) -> str:
        """A read; invalid-header reads yield 0 (bmv2 convention)."""
        if ref.header in self.metadata:
            return self.locals[ref.header, ref.field]
        read = self.locals.get((ref.header, ref.field))
        if read is None:
            read = f"({self.word(ref.header, ref.field)})"
            if ref.header not in self.removed:
                # A header's word is 0 on every path that leaves it
                # invalid, unless the program removes it; a written
                # field's local is not.
                return read
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
            size = self.bind_own(attrgetter("state.register_size"))
            return f"{size}({expr.register!r})"
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
        of one — to ``ref``'s local; on an invalid header it does not
        make the header valid."""
        width_mask = mask(self.program.field_width(ref))
        if isinstance(source, ex.Const):
            text = repr(source.value & width_mask)
        else:
            if not isinstance(source, str):
                source = self.value(source, params, args)
            text = f"{source} & {width_mask}"
        self.emit(f"{self.locals[ref.header, ref.field]} = {text}")

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
        cells = self.bind_own(lambda switch: switch.state._arrays[name])
        return f"{cells}[{index}]"

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
            # Zero-filled: every field of an added header is a local.
            names = self.program.header_type_of(prim.header).field_names()
            self.emit(f"valid.add({prim.header!r})")
            self.emit(" = ".join(self.locals[prim.header, name]
                                 for name in names) + " = 0")
        elif isinstance(prim, act.RemoveHeader):
            self.emit(f"valid.discard({prim.header!r})")
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
        traversal reads or writes; the per-packet locals come back as
        its result."""
        body = self.nested(lambda: self.control(node))
        if not body:
            return
        state = ", ".join(self.locals.values()) + ","
        call = f"_f{len(self.functions)}({self.shared}, {state})"
        self.functions.append([f"def {call}:", *body,
                               f"    return {state}"])
        self.emit(f"{state} = {call}")

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
    def function(self, steps_only: bool) -> _Emitted:
        program = self.program
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
            # The trace's template, or parsed now (a template of None
            # re-raises its parse error).
            "        if template is None:",
            "            template = parse(data)",
        ]
        if self.reshapes:
            self.emit(f"base, ident, end{self.word_names} = template")
            self.emit("valid = set(base)")
        else:
            self.emit(f"valid, ident, end{self.word_names} = template")
        ingress_port = (act.INGRESS_PORT.header, act.INGRESS_PORT.field)
        port = f"ingress & {mask(program.field_width(act.INGRESS_PORT))}"
        zeroed = []
        for key, local in self.locals.items():
            start = port if key == ingress_port else (
                "0" if key[0] in self.metadata else self.word(*key))
            if start == "0":
                zeroed.append(local)
            else:
                self.emit(f"{local} = {start}")
        self.emit(f"{' = '.join(zeroed)} = 0")
        self.emit("steps = []")
        self.lines.extend(body)
        drop, punt, port, reason = (
            self.field(ref) for ref in (act.DROP_FLAG, act.TO_CONTROLLER,
                                        act.EGRESS_PORT, act.CONTROLLER_REASON)
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
            self.deparse()
            self.emit(f"append(result(data, output, steps, {port}, "
                      f"{drop} != 0, {punt} != 0, {reason}))")
        return _Emitted(*_compiled(self.source()), self.namespace, self.own)

    def deparse(self) -> None:
        """``output``: valid packet headers in program order, then the
        payload, as an RMT deparser emits them from the words its
        parser filled.  A written header's word is rebuilt from its
        locals; a padded one's pad bits are zeroed.  A path that
        deparses as it parsed (its template's ``ident``) with no
        rebuilt word changed, and for a program that adds or removes a
        header its valid set unchanged, outputs ``data`` itself."""
        same, chunks = ["ident"], []
        for i, inst in enumerate(self.program.packet_headers()):
            header = inst.name
            codec = get_codec(self.program.header_types[inst.header_type])
            slot = self.slots.get(header)
            # The word's unwritten field bits (not its pad), and the
            # written locals shifted into place.
            keep, terms = 0, []
            for name, (shift, fmask) in codec.fields.items():
                local = self.locals.get((header, name))
                if local is None:
                    keep |= fmask << shift
                else:
                    terms.append(f"{local} << {shift}" if shift else local)
            if slot is None or not keep:
                base = None
            elif keep == mask(8 * codec.byte_width):
                base = f"_w{slot}"
            else:
                base = f"(_w{slot} & {keep})"
            word = base
            if terms:
                # Bound before the test, which compares it with the word.
                self.emit(f"_o{i} = {' | '.join(filter(None, [base, *terms]))}")
                word = f"_o{i}"
                if slot is not None:
                    same.append(f"_o{i} == _w{slot}")
            chunk = (f"{word}.to_bytes({codec.byte_width}, 'big')" if word
                     else repr(bytes(codec.byte_width)))
            chunks.append(f"{chunk} if {header!r} in valid else b''")
        if self.reshapes:
            same.append("valid == base")
        chunks.append("data[end:]")
        self.emit(f"output = data if {' and '.join(same)} else "
                  f"join(({', '.join(chunks)},))")
