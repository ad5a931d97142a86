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
  (:mod:`repro.sim.plan`: one generated function per sink kind, over
  header words) replaces the IR walk and deparses from the words: a
  packet none of whose words changed, on a parse path that deparses as
  it parsed, is output as its input.  The plan compiles the tables it
  binds; it is bound lazily, once per switch and config state, to a
  tail emitted once per program, config and register shape.
* the **reference interpreter** (the switch off): :meth:`walk`, which
  parses with ``parse_packet`` and runs ``_run_control`` /
  ``_apply_table`` over :mod:`repro.sim.action_interp`, then
  ``deparse_packet``: it shares no code with the plan.  The engine is
  checked against it — bit-identical :class:`SwitchResult` streams on
  identical inputs
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
import threading
from collections import OrderedDict
from itertools import repeat
from typing import (
    Callable,
    Dict,
    Hashable,
    List,
    Optional,
    Sequence,
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
from repro.p4.dsl.printer import program_fingerprint
from repro.p4.program import Program
from repro.p4.types import mask
from repro.sim.action_interp import Phv, eval_expr, execute_action
from repro.sim.events import ExecutionStep
from repro.sim.match import lookup
from repro.sim.plan import Parser, Plan, build_parser, build_plan
from repro.sim.runtime import RuntimeConfig, config_fingerprint
from repro.sim.parser_engine import ParsedPacket, deparse_packet, parse_packet
from repro.sim.state import SwitchState


@dataclass
class SwitchResult:
    """Everything observable about one packet's traversal."""

    index: int
    input_bytes: bytes
    output_bytes: bytes
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


def decision_of(headers: Dict[str, Dict[str, int]]) -> Decision:
    """The forwarding decision in a walked packet's final
    ``standard_metadata`` (:meth:`BehavioralSwitch.walk`)."""
    standard = headers[STANDARD_METADATA]
    return (
        standard.get("egress_port", 0),
        bool(standard.get("drop_flag", 0)),
        bool(standard.get("to_controller", 0)),
    )


class StepSink:
    """A :meth:`BehavioralSwitch.process_many` sink that keeps each
    packet's step log and forwarding decision, and nothing else: the
    packets per distinct step log (``paths``, first-seen order) and one
    decision per packet, read out of ``standard_metadata`` (equal
    decisions share one tuple, so a pickle holds each distinct one
    once).

    The type is the declaration: for a ``StepSink`` the batch builds no
    :class:`SwitchResult` and deparses nothing."""

    __slots__ = ("paths", "decisions", "_distinct")

    def __init__(self):
        self.paths: Dict[Tuple[ExecutionStep, ...], int] = {}
        self.decisions: List[Decision] = []
        self._distinct: Dict[Decision, Decision] = {}


#: What a parser made of one packet: ``(valid, ident, end, word, ...)``
#: — its parse path's valid set (one object per path) and whether the
#: path deparses as it parsed, the payload's offset, and one integer per
#: header slot, 0 where the path extracts none
#: (:class:`repro.sim.plan.Parser`).  Nothing writes it.
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
    of the trace with that key, or by a caller that already parsed the
    packets with that key's parser (serve's window); switches with equal
    keys parse every packet identically.  The parses live and die with the trace object.
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


#: (program fingerprint, config fingerprint) pairs this process has
#: validated, the oldest dropped first past ``_VALIDATED_SIZE``.
_VALIDATED_SIZE = 64
_validated: "OrderedDict[tuple, None]" = OrderedDict()
_validated_lock = threading.Lock()


def _validate(program: Program, config: RuntimeConfig) -> None:
    """``config.validate(program)``, once per content key in this
    process; a pair that fails is not remembered, so it raises again."""
    key = (program_fingerprint(program), config_fingerprint(config))
    with _validated_lock:
        if key in _validated:
            _validated.move_to_end(key)
            return
    config.validate(program)
    with _validated_lock:
        _validated[key] = None
        if len(_validated) > _VALIDATED_SIZE:
            _validated.popitem(last=False)


class BehavioralSwitch:
    """A software switch running one program with one runtime config.

    Register state persists across packets; call :meth:`reset_state` to
    start a fresh profiling run.
    """

    def __init__(self, program: Program, config: Optional[RuntimeConfig] = None):
        self.program = program
        self.config = config if config is not None else RuntimeConfig()
        _validate(program, self.config)
        self.state = SwitchState(program)
        self._packet_count = 0
        # The config-mutation stamp the plan was built against.
        self._config_mutations = self.config.mutations
        # Precompiled once per program: the parser (emitted, and shared
        # by every switch with its parse key), metadata names, and the
        # ingress_port width mask.
        self._parser: Parser = build_parser(program)
        self._metadata_names = tuple(
            inst.name for inst in program.metadata_headers()
        )
        self._ingress_mask = mask(program.field_width(INGRESS_PORT))
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
        _validate(self.program, self.config)
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
    def process(
        self, data: bytes, ingress_port: int = 0,
        template: Optional[ParseTemplate] = None,
    ) -> SwitchResult:
        """Push one packet through parse → ingress → deparse.

        ``template`` is the packet's parse by a parser with this switch's
        parse key (``self._parser.key``), or None to parse it here; the
        reference walk ignores it."""
        self._prepare()
        sink: List[SwitchResult] = []
        if self.config.enable_compiled_tables:
            self._plan[False]((data,), (template,), ingress_port, sink)
        else:
            self._reference_replay((data,), ingress_port, sink)
        return sink[0]

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
        """The one entry behind every kind of batch (:meth:`process`
        calls the result tail itself): the plan's emitted loop for the
        sink's kind, over the trace's
        shared parse when it is a :class:`ReplayTrace`, when
        ``enable_compiled_tables`` is on; else the reference loop."""
        self._prepare()
        steps_only = isinstance(sink, StepSink)
        if self.config.enable_compiled_tables:
            parser = self._parser
            templates = (
                packets.templates(parser.key, parser.parse)
                if isinstance(packets, ReplayTrace)
                else repeat(None)
            )
            self._plan[steps_only](packets, templates, ingress_port, sink)
        else:
            self._reference_replay(packets, ingress_port, sink)
        if steps_only:
            # The indices _result would have handed out.
            self._packet_count += len(packets)
        return sink

    def _reference_replay(self, packets, ingress_port, sink):
        """The reference loop: the emitted loop's oracle, which parses
        every packet itself and shares nothing with it."""
        steps_only = isinstance(sink, StepSink)
        for entry in packets:
            if isinstance(entry, tuple):
                data, port = entry
            else:
                data, port = entry, ingress_port
            parsed, steps = self.walk(data, port)
            decision = decision_of(parsed.headers)
            if steps_only:
                steps = tuple(steps)
                sink.paths[steps] = sink.paths.get(steps, 0) + 1
                sink.decisions.append(
                    sink._distinct.setdefault(decision, decision)
                )
            else:
                output = deparse_packet(
                    self.program, parsed.headers, parsed.valid, parsed.payload
                )
                reason = parsed.headers[STANDARD_METADATA].get(
                    "controller_reason", 0
                )
                sink.append(
                    self._result(data, output, steps, *decision, reason)
                )

    def walk(
        self, data: bytes, ingress_port: int = 0
    ) -> Tuple[ParsedPacket, List[ExecutionStep]]:
        """The reference walk of one packet: ``parse_packet``, metadata
        on and zeroed, the ingress control, then the egress control for
        a packet neither dropped nor punted to the controller.  Returns
        the packet with its final headers and valid set, and its step
        log.  Registers advance; the packet index does not."""
        parsed = parse_packet(self.program, data)
        headers, valid = parsed.headers, parsed.valid
        for name in self._metadata_names:
            headers[name] = {}
        valid.update(self._metadata_names)
        headers[STANDARD_METADATA]["ingress_port"] = (
            ingress_port & self._ingress_mask
        )
        steps: List[ExecutionStep] = []
        phv = Phv(self.program, headers, valid)
        self._run_control(self.program.ingress, phv, steps)
        if not (phv.read(DROP_FLAG) or phv.read(TO_CONTROLLER)):
            self._run_control(self.program.egress, phv, steps)
        return parsed, steps

    def _result(
        self, data: bytes, output: bytes, steps: List[ExecutionStep],
        egress_port: int, dropped: bool, to_controller: bool, reason: int,
    ) -> SwitchResult:
        """A result tail's packet, with the next packet index."""
        index = self._packet_count
        self._packet_count += 1
        return SwitchResult(
            index, data, output, steps, egress_port, dropped,
            to_controller, reason,
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
