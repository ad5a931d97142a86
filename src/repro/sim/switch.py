"""The behavioural switch: parse → ingress control → deparse.

This is the simulator P2GO profiles against — our stand-in for the Tofino
simulator (the paper notes bmv2-style behavioural simulation suffices for
everything except realistic resource allocation, which lives in
:mod:`repro.target` instead).

Because profiling a trace is the dominant cost of every P2GO run, the
switch is a *profiling engine* with one switch and one reference:

* the **compiled program** (``RuntimeConfig.enable_compiled_tables``,
  on by default): precompiled match structures
  (:class:`repro.sim.match.CompiledTable`) replace the per-packet
  linear entry scans, and a per-program execution plan
  (:mod:`repro.sim.plan`: actions and control bound into closures once)
  replaces the IR walk, whose deparser re-packs only the headers a
  packet's writes touched.  The plan compiles the tables it binds; it
  is built lazily, once per switch and config state.
* the **reference interpreter** (the switch off): ``_run_control`` /
  ``_apply_table`` over :mod:`repro.sim.action_interp`, which shares no
  traversal code with the plan.  The engine is checked against it —
  bit-identical :class:`SwitchResult` streams on identical inputs
  (property-tested in ``tests/test_profiling_engine.py`` and
  ``tests/test_execution_plan.py``; semantics argument in DESIGN.md,
  "Profiling engine").  There is no other engine (DESIGN.md §12 says
  why).
* **shared parses** (:class:`ReplayTrace`): a trace replayed many times
  keeps what each parser made of its packets, and every replay starts
  from private copies of that one parse (DESIGN.md §5, "What replays
  share").  Nothing executed is shared.
* **step sinks** (:class:`StepSink`): a batch whose sink reads only
  each packet's step log and forwarding decision builds nothing else —
  no :class:`SwitchResult`, no deparse.

The switch counts nothing and queues nothing: what a replay cost is a
view of its profile (:class:`repro.core.profiler.PerfCounters`), and a
punted packet's index, reason and bytes are on its :class:`SwitchResult`.
"""

from __future__ import annotations

from itertools import repeat
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from dataclasses import dataclass

from repro.exceptions import SimulationError
from repro.p4.actions import (
    DROP_FLAG,
    INGRESS_PORT,
    STANDARD_METADATA,
    TO_CONTROLLER,
)
from repro.p4.control import Apply, ControlNode, If, Seq
from repro.p4.parser_spec import ACCEPT
from repro.p4.program import Program
from repro.p4.types import mask
from repro.packets.packet import get_codec
from repro.sim.action_interp import Phv, eval_expr, execute_action
from repro.sim.events import ExecutionStep
from repro.sim.match import lookup
from repro.sim.plan import Frame, Plan, build_plan
from repro.sim.runtime import RuntimeConfig
from repro.sim.parser_engine import ParsedPacket, deparse_packet
from repro.sim.state import SwitchState


@dataclass
class SwitchResult:
    """Everything observable about one packet's traversal."""

    index: int
    input_bytes: bytes
    output_bytes: bytes
    headers: Dict[str, Dict[str, int]]
    valid: Set[str]
    steps: List[ExecutionStep]
    egress_port: int
    dropped: bool
    to_controller: bool
    controller_reason: int

    def executed_tables(self) -> List[str]:
        return [s.table for s in self.steps]

    def hit_tables(self) -> List[str]:
        return [s.table for s in self.steps if s.hit]

    def forwarding_decision(self) -> Tuple[int, bool, bool]:
        """(egress_port, dropped, to_controller) — the behavioural output
        P2GO must preserve."""
        return (self.egress_port, self.dropped, self.to_controller)


#: A packet's forwarding decision: (egress_port, dropped, to_controller).
Decision = Tuple[int, bool, bool]


class StepSink:
    """A :meth:`BehavioralSwitch.process_many` sink that keeps each
    packet's step log and forwarding decision, and nothing else: the
    packets per distinct step log (``paths``, first-seen order) and one
    decision per packet, read out of ``standard_metadata`` (equal
    decisions share one tuple, so a pickle holds each distinct one
    once).

    The type is the declaration: for a ``StepSink`` the batch builds no
    :class:`SwitchResult` and deparses nothing, and on the execution
    plan a shared parse's header dicts that the plan never writes are
    not copied (:meth:`ParseTemplate.fresh`)."""

    __slots__ = ("paths", "decisions", "_distinct")

    def __init__(self):
        self.paths: Dict[Tuple[ExecutionStep, ...], int] = {}
        self.decisions: List[Decision] = []
        self._distinct: Dict[Decision, Decision] = {}


class ParseTemplate(NamedTuple):
    """What a parser made of one packet, shared by every replay of a
    :class:`ReplayTrace`.  Never handed to a replay: :meth:`fresh`
    makes the private parse, so no replay's writes reach the next one.
    ``spans`` is shared; nothing writes it."""

    headers: Dict[str, Dict[str, int]]
    valid: FrozenSet[str]
    payload: bytes
    spans: Dict[str, Tuple[int, int]]

    def fresh(self, writes: Optional[FrozenSet[str]] = None) -> ParsedPacket:
        """A new headers dict and valid set over copies of every header
        dict — or, given ``writes``, of those it names only.  The rest
        are the template's own, so ``writes`` must name every header
        the traversal writes in place: the plan's write set, on a batch
        whose sink lets no result escape (DESIGN.md §5)."""
        if writes is None:
            headers = {
                name: fields.copy() for name, fields in self.headers.items()
            }
        else:
            headers = self.headers.copy()
            for name in writes:
                fields = headers.get(name)
                if fields is not None:
                    headers[name] = fields.copy()
        return ParsedPacket(headers, set(self.valid), self.payload, self.spans)


def _template(
    parse: Callable[[bytes], ParsedPacket], entry
) -> Optional[ParseTemplate]:
    """One packet's template; None when it fails to parse, so every
    replay parses it again and fails at the same index."""
    data = entry[0] if isinstance(entry, tuple) else entry
    try:
        parsed = parse(data)
    except SimulationError:
        return None
    return ParseTemplate(
        parsed.headers, frozenset(parsed.valid), parsed.payload, parsed.spans
    )


class ReplayTrace(list):
    """A trace that is replayed many times, and its parses.

    ``parses`` maps a switch's parse key — everything its parser reads —
    to one :class:`ParseTemplate` per packet, filled by the first replay
    of the trace with that key; switches with equal keys parse every
    packet identically.  The parses live and die with the trace object:
    a pickle (a pool task, a fleet spec, a store entry) carries a plain
    list, and so does a slice.  The list must not be mutated in place.
    """

    def __init__(self, packets: Sequence = ()):
        super().__init__(packets)
        self.parses: Dict[Hashable, List[Optional[ParseTemplate]]] = {}

    def __reduce__(self):
        return list, (list(self),)

    def templates(
        self, key: Hashable, parse: Callable[[bytes], ParsedPacket]
    ) -> List[Optional[ParseTemplate]]:
        """The templates for ``key``, parsed with ``parse`` on the first
        ask.  Two threads may build one key at once; templates are never
        mutated, so whichever list lands is as good as the other."""
        found = self.parses.get(key)
        if found is None:
            found = self.parses[key] = [
                _template(parse, entry) for entry in self
            ]
        return found


class BehavioralSwitch:
    """A software switch running one program with one runtime config.

    Register state persists across packets; call :meth:`reset_state` to
    start a fresh profiling run.
    """

    def __init__(self, program: Program, config: Optional[RuntimeConfig] = None):
        program.validate()
        self.program = program
        self.config = config if config is not None else RuntimeConfig()
        self.config.validate(program)
        self.state = SwitchState(program)
        self._packet_count = 0
        # The config-mutation stamp the plan was built against.
        self._config_mutations = self.config.mutations
        # Per-program plans precompiled once: parser states with their
        # header codecs, deparse order, metadata names, and the
        # ingress_port width mask.
        self._metadata_names = tuple(
            inst.name for inst in program.metadata_headers()
        )
        self._ingress_mask = mask(program.field_width(INGRESS_PORT))
        self._deparse_plan = tuple(
            (inst.name, get_codec(program.header_types[inst.header_type]))
            for inst in program.packet_headers()
        )
        self._auto_valid = tuple(
            (
                inst.name,
                program.header_types[inst.header_type].field_names(),
            )
            for inst in program.packet_headers()
            if inst.auto_valid
        )
        self._parse_states = None
        self._parse_start = ""
        #: Everything ``_parse`` reads, as content: the key of this
        #: switch's templates in a :class:`ReplayTrace`.
        self._parse_key: Hashable = None
        if program.parser is not None:
            self._parse_start = program.parser.start
            self._parse_states = {
                name: (
                    tuple(
                        (
                            h,
                            get_codec(program.header_type_of(h)),
                            program.header_type_of(h).byte_width,
                        )
                        for h in state.extracts
                    ),
                    state.select,
                    state.transitions,
                    state.default,
                )
                for name, state in program.parser.states.items()
            }
            self._parse_key = (
                self._parse_start,
                tuple(
                    (
                        name,
                        tuple(
                            (h, program.header_type_of(h))
                            for h in state.extracts
                        ),
                        state.select,
                        tuple(state.transitions.items()),
                        state.default,
                    )
                    for name, state in program.parser.states.items()
                ),
                self._auto_valid,
            )
        # The execution plan (repro.sim.plan), bound by the first batch
        # or packet that runs on the engine after the config last
        # changed; never on the reference walk.
        self._plan: Optional[Plan] = None
        self._apply_register_inits()

    # ------------------------------------------------------------------
    def _apply_register_inits(self) -> None:
        from repro.sim.hashing import compute_hash

        for register, index, value in self.config.register_inits:
            self.state.write(register, index, value)
        for register, algorithm, key, value in self.config.hashed_inits:
            size = self.state.register_size(register)
            self.state.write(
                register, compute_hash(algorithm, key, size), value
            )

    def reset_state(self) -> None:
        """Reset registers to their configured initial contents and
        restart the packet index."""
        self.state.reset()
        self._packet_count = 0
        self._apply_register_inits()

    def invalidate_caches(self) -> None:
        """Drop the execution plan, which binds the compiled tables and
        default actions (after config edits).

        Called automatically when the config was mutated through its API
        (``add_entry`` / ``set_default``); callers that poke
        ``config.entries`` or ``config.default_overrides`` directly must
        invoke this themselves.
        Re-validates the config, so a bad rule installed mid-run fails
        as :class:`RuntimeConfigError` before any packet is touched.
        """
        self.config.validate(self.program)
        self._plan = None
        self._config_mutations = self.config.mutations

    def _prepare(self) -> None:
        """Before a packet or a batch: catch up with config edits, and
        bind the plan if the engine runs and has none."""
        if self._config_mutations != self.config.mutations:
            self.invalidate_caches()
        if self._plan is None and self.config.enable_compiled_tables:
            self._plan = build_plan(self)

    # ------------------------------------------------------------------
    def process(self, data: bytes, ingress_port: int = 0) -> SwitchResult:
        """Push one packet through parse → ingress → deparse."""
        self._prepare()
        parsed = self._parse(data)
        return self._result(
            parsed, data, *self._traverse(parsed, ingress_port)
        )

    def process_many(
        self, packets: Sequence, ingress_port: int = 0, into=None
    ) -> List[SwitchResult]:
        """Batched processing: replay the whole trace.

        Entries are raw ``bytes`` (using ``ingress_port``) or
        ``(bytes, port)`` tuples for per-packet ingress ports.  State
        accumulates across the batch exactly as in per-packet
        :meth:`process` calls.
        Each result is appended to ``into`` as it is produced — a fresh
        list by default — and ``into`` is returned, so a caller that
        folds results passes a sink and holds none of them.  A
        :class:`StepSink` keeps each packet's steps and decision instead,
        and no result is built.  A :class:`ReplayTrace` is parsed once
        per parse key; a plain sequence is parsed packet by packet and
        leaves nothing behind.
        """
        self._prepare()
        sink = [] if into is None else into
        traverse = self._traverse
        writes = None
        if isinstance(sink, StepSink):
            paths = sink.paths
            append, distinct = sink.decisions.append, sink._distinct
            if self.config.enable_compiled_tables:
                writes = self._plan.writes

            def finish(parsed, data, steps, written):
                steps = tuple(steps)
                paths[steps] = paths.get(steps, 0) + 1
                standard = parsed.headers[STANDARD_METADATA]
                decision = (
                    standard.get("egress_port", 0),
                    bool(standard.get("drop_flag", 0)),
                    bool(standard.get("to_controller", 0)),
                )
                append(distinct.setdefault(decision, decision))
        else:
            append, result = sink.append, self._result

            def finish(parsed, data, steps, written):
                append(result(parsed, data, steps, written))

        templates = (
            packets.templates(self._parse_key, self._parse)
            if isinstance(packets, ReplayTrace)
            else repeat(None)
        )
        for entry, template in zip(packets, templates):
            if isinstance(entry, tuple):
                data, port = entry
            else:
                data, port = entry, ingress_port
            parsed = (
                self._parse(data) if template is None
                else template.fresh(writes)
            )
            finish(parsed, data, *traverse(parsed, port))
        if isinstance(sink, StepSink):
            # The indices _result would have handed out.
            self._packet_count += len(packets)
        return sink

    # ------------------------------------------------------------------
    def _parse(self, data: bytes) -> ParsedPacket:
        """Plan-based :func:`~repro.sim.parser_engine.parse_packet`.

        Identical semantics; the parse graph, header codecs, and byte
        widths are resolved once in ``__init__`` instead of per packet.
        """
        states = self._parse_states
        if states is None:
            raise SimulationError(
                f"program {self.program.name!r} has no parser; "
                "cannot parse packets"
            )
        headers: Dict[str, Dict[str, int]] = {}
        valid: Set[str] = set()
        spans: Dict[str, Tuple[int, int]] = {}
        offset = 0
        length = len(data)
        state_name = self._parse_start
        while state_name != ACCEPT:
            extracts, select, transitions, default = states[state_name]
            for header_name, codec, byte_width in extracts:
                end = offset + byte_width
                if end > length:
                    raise SimulationError(
                        f"packet too short: state {state_name!r} needs "
                        f"{byte_width} bytes for {header_name!r}, "
                        f"{length - offset} remain"
                    )
                headers[header_name] = codec.unpack_at(data, offset)
                valid.add(header_name)
                spans[header_name] = (offset, end)
                offset = end
            if select is None:
                state_name = default
            else:
                if select.header not in valid:
                    raise SimulationError(
                        f"parser state {state_name!r} selects on "
                        f"{select.path!r} before extracting "
                        f"{select.header!r}"
                    )
                value = headers[select.header][select.field]
                state_name = transitions.get(value, default)
        for name, field_names in self._auto_valid:
            if name not in valid:
                headers[name] = dict.fromkeys(field_names, 0)
                valid.add(name)
        return ParsedPacket(
            headers=headers, valid=valid, payload=data[offset:], spans=spans
        )

    def _install_metadata(
        self, parsed: ParsedPacket, ingress_port: int
    ) -> None:
        """Metadata headers onto a fresh parse (which never contains
        them): always valid, zeroed — dicts filled by writes — and
        ``ingress_port`` set."""
        for name in self._metadata_names:
            parsed.valid.add(name)
            parsed.headers[name] = {}
        parsed.headers[STANDARD_METADATA]["ingress_port"] = (
            ingress_port & self._ingress_mask
        )

    def _deparse(self, parsed: ParsedPacket, data: bytes, dirty) -> bytes:
        """Valid packet headers in declaration order, plus payload.

        A valid header outside ``dirty`` (written / added / removed) is
        bit-identical to its slice of the incoming packet (pack∘unpack
        is the identity for byte-aligned headers), so emit the slice;
        only dirty, padded, or parser-less headers are re-packed — by
        ``pack_trusted``: every value was masked when written and every
        field named passed validation (DESIGN.md §5).
        """
        headers, valid, spans = parsed.headers, parsed.valid, parsed.spans
        chunks: List[bytes] = []
        for name, codec in self._deparse_plan:
            if name in valid:
                span = spans.get(name)
                if span is None or name in dirty or codec.pad:
                    chunks.append(codec.pack_trusted(headers[name]))
                else:
                    chunks.append(data[span[0]:span[1]])
        chunks.append(parsed.payload)
        return b"".join(chunks)

    def _traverse(
        self, parsed: ParsedPacket, ingress_port: int
    ) -> Tuple[List[ExecutionStep], Optional[Set[str]]]:
        """The traversal, shared by every kind of batch: metadata onto
        ``parsed``, then the execution plan when
        ``enable_compiled_tables`` is on, else the reference walk.
        Returns the steps and the headers the plan wrote (None from the
        walk, whose deparser re-packs every header)."""
        self._install_metadata(parsed, ingress_port)
        steps: List[ExecutionStep] = []
        if self.config.enable_compiled_tables:
            written: Set[str] = set()
            self._plan.run(Frame(parsed.headers, parsed.valid, written, steps))
            return steps, written
        phv = Phv(self.program, parsed.headers, parsed.valid)
        self._run_control(self.program.ingress, phv, steps)
        # The egress pipeline runs for packets the traffic manager
        # actually emits: neither dropped nor punted to the controller.
        if not (phv.read(DROP_FLAG) or phv.read(TO_CONTROLLER)):
            self._run_control(self.program.egress, phv, steps)
        return steps, None

    def _result(
        self, parsed: ParsedPacket, data: bytes,
        steps: List[ExecutionStep], written: Optional[Set[str]],
    ) -> SwitchResult:
        """The full-result tail: deparse, read the forwarding decision
        out of ``standard_metadata``, report the traversal."""
        headers = parsed.headers
        if written is not None:
            output = self._deparse(parsed, data, written)
        else:
            packet_valid = {
                h for h in parsed.valid if not self.program.headers[h].metadata
            }
            output = deparse_packet(
                self.program, headers, packet_valid, parsed.payload
            )
        standard = headers[STANDARD_METADATA]
        index = self._packet_count
        self._packet_count += 1
        return SwitchResult(
            index=index,
            input_bytes=data,
            output_bytes=output,
            headers=headers,
            valid=parsed.valid,
            steps=steps,
            egress_port=standard.get("egress_port", 0),
            dropped=bool(standard.get("drop_flag", 0)),
            to_controller=bool(standard.get("to_controller", 0)),
            controller_reason=standard.get("controller_reason", 0),
        )

    # ------------------------------------------------------------------
    def _run_control(
        self, node: ControlNode, phv: Phv, steps: List[ExecutionStep]
    ) -> None:
        if isinstance(node, Seq):
            for child in node.nodes:
                self._run_control(child, phv, steps)
            return
        if isinstance(node, If):
            taken = eval_expr(node.condition, phv, self.state, {})
            if taken:
                self._run_control(node.then_node, phv, steps)
            elif node.else_node is not None:
                self._run_control(node.else_node, phv, steps)
            return
        if isinstance(node, Apply):
            hit = self._apply_table(node.table, phv, steps)
            if hit and node.on_hit is not None:
                self._run_control(node.on_hit, phv, steps)
            if not hit and node.on_miss is not None:
                self._run_control(node.on_miss, phv, steps)
            return
        raise SimulationError(f"unknown control node {node!r}")

    def _apply_table(
        self, table_name: str, phv: Phv, steps: List[ExecutionStep]
    ) -> bool:
        table = self.program.tables[table_name]
        entry = None
        # A key whose header is invalid cannot match any entry.
        keys_valid = all(phv.is_valid(k.field.header) for k in table.keys)
        if table.keys and keys_valid:
            key_values = [phv.read(k.field) for k in table.keys]
            key_widths = [
                self.program.field_width(k.field) for k in table.keys
            ]
            entry = lookup(
                table,
                key_widths,
                key_values,
                self.config.entries_for(table_name),
            )
        if entry is not None:
            action_name, action_args = entry.action, entry.action_args
            hit = True
        else:
            action_name, action_args = self.config.default_for(table)
            hit = False
        action = self.program.actions[action_name]
        execute_action(self.program, action, action_args, phv, self.state)
        steps.append(ExecutionStep(table_name, action_name, hit))
        return hit
