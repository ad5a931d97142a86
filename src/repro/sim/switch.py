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
  (:mod:`repro.sim.plan`: one generated function per sink kind)
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
  keeps what each parser made of its packets, as integers no replay
  writes (DESIGN.md §5, "What replays share").  Nothing executed is
  shared.
* **step sinks** (:class:`StepSink`): a batch whose sink reads only
  each packet's step log and forwarding decision builds nothing else —
  no :class:`SwitchResult`, no deparse.

The switch counts nothing and queues nothing: what a replay cost is a
view of its profile (:class:`repro.core.profiler.PerfCounters`), and a
punted packet's index, reason and bytes are on its :class:`SwitchResult`.
"""

from __future__ import annotations

import hashlib
from itertools import repeat
from typing import (
    Callable,
    Dict,
    Hashable,
    List,
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
from repro.p4.program import Program
from repro.p4.types import mask
from repro.packets.packet import get_codec
from repro.sim.action_interp import Phv, eval_expr, execute_action
from repro.sim.events import ExecutionStep
from repro.sim.match import lookup
from repro.sim.plan import Parser, Plan, build_parser, build_plan
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
    plan it builds no header dict either: fields are read out of the
    parse's header words, and metadata lives in locals."""

    __slots__ = ("paths", "decisions", "_distinct")

    def __init__(self):
        self.paths: Dict[Tuple[ExecutionStep, ...], int] = {}
        self.decisions: List[Decision] = []
        self._distinct: Dict[Decision, Decision] = {}


#: What a parser made of one packet: ``(valid, spans, end, word, ...)``
#: — its parse path's valid set and span map (one object each per path),
#: the payload's offset, and one integer per header slot, 0 where the
#: path extracts none (:class:`repro.sim.plan.Parser`).  Nothing writes it.
ParseTemplate = tuple


def _template(parse: Callable[[bytes], ParseTemplate], entry):
    """One packet's template; None when it fails to parse, so every
    replay parses it again and fails at the same index."""
    try:
        return parse(entry[0] if isinstance(entry, tuple) else entry)
    except SimulationError:
        return None


def trace_fingerprint(trace: Sequence) -> str:
    """Content key of a trace: SHA-1 over packet bytes + ingress ports."""
    digest = hashlib.sha1()
    for packet in trace:
        if isinstance(packet, tuple):
            data, port = packet
        else:
            data, port = packet, 0
        digest.update(port.to_bytes(4, "big"))
        digest.update(len(data).to_bytes(4, "big"))
        digest.update(data)
    return digest.hexdigest()


class ReplayTrace(list):
    """A trace that is replayed many times, its parses and its content
    key.

    ``parses`` maps a switch's parse key — everything its parser reads —
    to one :class:`ParseTemplate` per packet, filled by the first replay
    of the trace with that key; switches with equal keys parse every
    packet identically.  The parses live and die with the trace object.
    :attr:`fingerprint` is hashed on the first ask, once per trace
    object.  A pickle (a pool task, a fleet or sweep spec) carries the
    packets and the fingerprint, never the parses; a slice is a plain
    list.  The list must not be mutated in place.
    """

    def __init__(self, packets: Sequence = (), fingerprint: Optional[str] = None):
        super().__init__(packets)
        self.parses: Dict[Hashable, List[Optional[ParseTemplate]]] = {}
        self._fingerprint = fingerprint

    @property
    def fingerprint(self) -> str:
        """:func:`trace_fingerprint` of the packets, hashed once."""
        if self._fingerprint is None:
            self._fingerprint = trace_fingerprint(self)
        return self._fingerprint

    def __reduce__(self):
        return ReplayTrace, (list(self), self.fingerprint)

    def templates(
        self, key: Hashable, parse: Callable[[bytes], ParseTemplate]
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
        self.program = program
        self.config = config if config is not None else RuntimeConfig()
        self.config.validate(program)
        self.state = SwitchState(program)
        self._packet_count = 0
        # The config-mutation stamp the plan was built against.
        self._config_mutations = self.config.mutations
        # Precompiled once per program: the parser (emitted, and shared
        # by every switch with its parse key), deparse order, metadata
        # names, and the ingress_port width mask.
        self._parser: Parser = build_parser(program)
        self._metadata_names = tuple(
            inst.name for inst in program.metadata_headers()
        )
        self._ingress_mask = mask(program.field_width(INGRESS_PORT))
        self._deparse_plan = tuple(
            (inst.name, get_codec(program.header_types[inst.header_type]))
            for inst in program.packet_headers()
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
        return self._replay((data,), ingress_port, [])[0]

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
        return self._replay(
            packets, ingress_port, [] if into is None else into
        )

    def _replay(self, packets: Sequence, ingress_port: int, sink):
        """The one entry behind :meth:`process` and every kind of batch:
        the plan's emitted loop for the sink's kind when
        ``enable_compiled_tables`` is on, else the reference loop —
        parse (or expand the shared parse), metadata on, the reference
        walk, then the sink's tail.  What differs between kinds is
        decided here, once per batch."""
        self._prepare()
        steps_only = isinstance(sink, StepSink)
        run = (
            self._plan[steps_only] if self.config.enable_compiled_tables
            else self._reference_replay
        )
        parser = self._parser
        templates = (
            packets.templates(parser.key, parser.parse)
            if isinstance(packets, ReplayTrace)
            else repeat(None)
        )
        run(packets, templates, ingress_port, sink)
        if steps_only:
            # The indices _result would have handed out.
            self._packet_count += len(packets)
        return sink

    def _reference_replay(self, packets, templates, ingress_port, sink):
        """The reference loop: the emitted loop's oracle."""
        parse, fresh = self._parser.parse, self._parser.fresh
        metadata = self._metadata_names
        steps_only = isinstance(sink, StepSink)
        for entry, template in zip(packets, templates):
            if isinstance(entry, tuple):
                data, port = entry
            else:
                data, port = entry, ingress_port
            parsed = fresh(parse(data) if template is None else template, data)
            # Metadata: always valid, zeroed (dicts filled by writes).
            headers, valid = parsed.headers, parsed.valid
            for name in metadata:
                headers[name] = {}
            valid.update(metadata)
            standard = headers[STANDARD_METADATA]
            standard["ingress_port"] = port & self._ingress_mask
            steps: List[ExecutionStep] = []
            # Ingress, then egress for packets the traffic manager
            # emits: neither dropped nor punted to the controller.
            phv = Phv(self.program, headers, valid)
            self._run_control(self.program.ingress, phv, steps)
            if not (phv.read(DROP_FLAG) or phv.read(TO_CONTROLLER)):
                self._run_control(self.program.egress, phv, steps)
            if steps_only:
                steps = tuple(steps)
                sink.paths[steps] = sink.paths.get(steps, 0) + 1
                decision = (
                    standard.get("egress_port", 0),
                    bool(standard.get("drop_flag", 0)),
                    bool(standard.get("to_controller", 0)),
                )
                sink.decisions.append(
                    sink._distinct.setdefault(decision, decision)
                )
            else:
                sink.append(self._result(parsed, data, steps, None))

    # ------------------------------------------------------------------
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
