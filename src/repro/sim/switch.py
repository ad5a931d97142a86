"""The behavioural switch: parse → ingress control → deparse.

This is the simulator P2GO profiles against — our stand-in for the Tofino
simulator (the paper notes bmv2-style behavioural simulation suffices for
everything except realistic resource allocation, which lives in
:mod:`repro.target` instead).

Because profiling a trace is the dominant cost of every P2GO run, the
switch doubles as a *fast profiling engine*:

* a **flow-result cache** (:mod:`repro.sim.flowcache`) memoizes the
  table-walk verdict of packets whose executed actions touch no
  registers, keyed on the match-relevant header bytes, from a key's
  second sighting on.  A traversal that reads or writes a register
  never serves, and never becomes, a cached verdict; its key is marked
  so the flow's later packets skip verdict work.
  Disable with ``RuntimeConfig.enable_flow_cache = False``.
* the **compiled program**: precompiled match structures
  (:class:`repro.sim.match.CompiledTable`) replace the per-packet
  linear entry scans, and a per-program execution plan
  (:mod:`repro.sim.plan`: actions and control bound into closures once)
  replaces the IR walk, whose deparser re-packs only the headers a
  packet's writes touched.  Both built lazily, once per switch.
  Disable with ``RuntimeConfig.enable_compiled_tables = False``.
* **perf counters** (:class:`repro.sim.perf.PerfCounters`) on
  ``BehavioralSwitch.perf``, timed by the batched
  :meth:`BehavioralSwitch.process_many` entry point.

Both optimizations are behaviour-preserving: with identical inputs the
engine produces bit-identical :class:`SwitchResult` streams with the
switches on or off (property-tested in ``tests/test_profiling_engine.py``
and ``tests/test_execution_plan.py``; semantics argument in DESIGN.md,
"Profiling engine").  With both off the switch *is* the reference
interpreter — ``_run_control`` / ``_apply_table`` over
:mod:`repro.sim.action_interp`, which shares no traversal code with the
plan — that the engine is checked against; there is no third engine
(DESIGN.md §12 says why).
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List, Optional, Sequence, Set, Tuple

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
from repro.sim.events import ControllerPacket, ExecutionStep
from repro.sim.flowcache import (
    FlowCache,
    FlowKey,
    FlowVerdict,
    SEEN,
    STATEFUL,
    analyze_program,
    build_verdict,
    compile_key_extractor,
)
from repro.sim.match import CompiledTable, compile_table, lookup
from repro.sim.perf import PerfCounters
from repro.sim.plan import Frame, build_plan
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


class BehavioralSwitch:
    """A software switch running one program with one runtime config.

    Register state persists across packets; call :meth:`reset_state` to
    start a fresh profiling run (this also clears the flow cache and the
    perf counters).
    """

    def __init__(self, program: Program, config: Optional[RuntimeConfig] = None):
        program.validate()
        self.program = program
        self.config = config if config is not None else RuntimeConfig()
        self.config.validate(program)
        self.state = SwitchState(program)
        self.controller_queue: List[ControllerPacket] = []
        self.perf = PerfCounters()
        self._packet_count = 0
        # Profiling-engine state: static key/statefulness analysis, the
        # flow-result cache, lazily compiled per-table match structures,
        # and the config-mutation stamp they were built against.
        self._analysis = analyze_program(program)
        self._key_extract = compile_key_extractor(self._analysis.key_fields)
        self._flow_cache = FlowCache(self.config.flow_cache_capacity)
        self._compiled_tables: Dict[str, CompiledTable] = {}
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
        # Tier 2's execution plan (repro.sim.plan), bound once by the
        # first packet that runs with the tier on; never with it off.
        self._plan = None
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
        """Reset registers to their configured initial contents, clear the
        controller queue, the flow-result cache, and the perf counters."""
        self.state.reset()
        self.controller_queue.clear()
        self._packet_count = 0
        self._flow_cache.clear()
        self.perf.reset()
        self._apply_register_inits()

    def invalidate_caches(self) -> None:
        """Drop the flow cache and compiled tables (after config edits).

        Called automatically when the config was mutated through its API
        (``add_entry`` / ``set_default``); callers that poke
        ``config.entries`` dicts directly must invoke this themselves.
        Re-validates the config, so a bad rule installed mid-run fails
        as :class:`RuntimeConfigError` before any packet is touched.
        """
        self.config.validate(self.program)
        self._flow_cache.clear()
        self._compiled_tables.clear()
        self._config_mutations = self.config.mutations

    # ------------------------------------------------------------------
    def process(self, data: bytes, ingress_port: int = 0) -> SwitchResult:
        """Push one packet through parse → ingress → deparse: a
        flow-cache replay when the verdict is memoized, else the full
        interpreter (tracked on its key's second sighting only)."""
        if self._config_mutations != self.config.mutations:
            self.invalidate_caches()
        self.perf.packets += 1
        parsed = self._parse(data)
        key: Optional[FlowKey] = None
        if self.config.enable_flow_cache:
            key = self._flow_key(parsed, ingress_port)
            entry = self._flow_cache.get(key)
            if entry.__class__ is FlowVerdict:
                self.perf.cache_hits += 1
                return self._replay_verdict(entry, parsed, data,
                                            ingress_port)
            self.perf.cache_misses += 1
            if entry is None and self._flow_cache.put(key, SEEN):
                self.perf.cache_evictions += 1
            if entry is not SEEN:
                key = None
        return self._execute(parsed, data, ingress_port, key)

    #: ``process_many`` loops over the same function under this name, so
    #: a timing wrapper patched over the public per-packet entry point
    #: (``benchmarks/stack`` traces ``process``) fires for per-packet
    #: callers only, not once per packet of a batch.
    _process_packet = process

    def process_many(
        self, packets: Sequence, ingress_port: int = 0
    ) -> List[SwitchResult]:
        """Batched processing: replay the whole trace, time it.

        Entries are raw ``bytes`` (using ``ingress_port``) or
        ``(bytes, port)`` tuples for per-packet ingress ports.  State
        accumulates across the batch exactly as in per-packet
        :meth:`process` calls; only the wall-clock accounting differs.
        """
        started = perf_counter()
        process = self._process_packet
        results = []
        for entry in packets:
            if isinstance(entry, tuple):
                data, port = entry
            else:
                data, port = entry, ingress_port
            results.append(process(data, port))
        self.perf.elapsed_seconds += perf_counter() - started
        self.perf.timed_packets += len(results)
        return results

    def process_trace(
        self, packets: Sequence, ingress_port: int = 0
    ) -> List[SwitchResult]:
        """Process a whole trace in order (alias of :meth:`process_many`)."""
        return self.process_many(packets, ingress_port)

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

    def _flow_key(
        self, parsed: ParsedPacket, ingress_port: int
    ) -> FlowKey:
        """(port, match-relevant field values, valid set) for one packet."""
        return (
            ingress_port,
            self._key_extract(parsed.headers),
            frozenset(parsed.valid),
        )

    def _install_metadata(
        self, parsed: ParsedPacket, ingress_port: int
    ) -> Dict[str, int]:
        """Metadata headers onto a fresh parse (which never contains
        them): always valid, zeroed — dicts filled by writes — and
        ``ingress_port`` set.  Returns ``standard_metadata``'s fields."""
        for name in self._metadata_names:
            parsed.valid.add(name)
            parsed.headers[name] = {}
        standard = parsed.headers[STANDARD_METADATA]
        standard["ingress_port"] = ingress_port & self._ingress_mask
        return standard

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

    def _emit(
        self, parsed: ParsedPacket, data: bytes, output: bytes,
        steps: List[ExecutionStep], egress_port: int, dropped: bool,
        to_controller: bool, controller_reason: int,
    ) -> SwitchResult:
        """Count the packet, queue it if punted, report the traversal."""
        index = self._packet_count
        self._packet_count += 1
        if to_controller:
            self.controller_queue.append(
                ControllerPacket(
                    index=index, reason=controller_reason, data=output
                )
            )
        return SwitchResult(
            index=index,
            input_bytes=data,
            output_bytes=output,
            headers=parsed.headers,
            valid=parsed.valid,
            steps=steps,
            egress_port=egress_port,
            dropped=dropped,
            to_controller=to_controller,
            controller_reason=controller_reason,
        )

    def _replay_verdict(
        self,
        verdict: FlowVerdict,
        parsed: ParsedPacket,
        data: bytes,
        ingress_port: int,
    ) -> SwitchResult:
        """Apply a cached delta to a fresh packet's own parsed headers."""
        headers = parsed.headers
        valid = parsed.valid
        self._install_metadata(parsed, ingress_port)
        for header in verdict.removed:
            valid.discard(header)
            headers.pop(header, None)
        for header in verdict.added:
            valid.add(header)
        for header, field_name, value in verdict.writes:
            fields = headers.get(header)
            if fields is None:
                fields = headers[header] = {}
            fields[field_name] = value
        return self._emit(
            parsed,
            data,
            self._deparse(parsed, data, verdict.dirty),
            list(verdict.steps),
            verdict.egress_port,
            verdict.dropped,
            verdict.to_controller,
            verdict.controller_reason,
        )

    def _execute(
        self,
        parsed: ParsedPacket,
        data: bytes,
        ingress_port: int,
        key: Optional[FlowKey],
    ) -> SwitchResult:
        """The full traversal: the execution plan when tier 2 is on,
        else the reference walk; with a ``key`` (its second sighting),
        tracked, and leaves it a verdict or the stateful mark."""
        headers, valid = parsed.headers, parsed.valid
        standard = self._install_metadata(parsed, ingress_port)
        initial_valid = frozenset(valid) if key is not None else None
        steps: List[ExecutionStep] = []
        if self.config.enable_compiled_tables:
            if self._plan is None:
                self._plan = build_plan(self)
            write_log: Optional[Set[Tuple[str, str]]] = set()
            self._plan(Frame(headers, valid, write_log, steps))
            output = self._deparse(parsed, data, {h for h, _f in write_log})
        else:
            phv = Phv(self.program, headers, valid)
            write_log = phv.write_log = set() if key is not None else None
            self._run_control(self.program.ingress, phv, steps)
            # The egress pipeline runs for packets the traffic manager
            # actually emits: neither dropped nor punted to the controller.
            if not (phv.read(DROP_FLAG) or phv.read(TO_CONTROLLER)):
                self._run_control(self.program.egress, phv, steps)
            packet_valid = {
                h for h in valid if not self.program.headers[h].metadata
            }
            output = deparse_packet(
                self.program, headers, packet_valid, parsed.payload
            )

        egress = standard.get("egress_port", 0)
        dropped = bool(standard.get("drop_flag", 0))
        to_ctrl = bool(standard.get("to_controller", 0))
        reason = standard.get("controller_reason", 0)
        result = self._emit(
            parsed, data, output, steps, egress, dropped, to_ctrl, reason
        )
        if key is not None:
            stateful = self._analysis.stateful_actions
            # Replaces the key's SEEN mark, so never a capacity flush.
            self._flow_cache.put(
                key,
                STATEFUL
                if any(step.action in stateful for step in steps)
                else build_verdict(result, write_log, initial_valid),
            )
        return result

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

    def _compiled_table(self, table_name: str) -> CompiledTable:
        compiled = self._compiled_tables.get(table_name)
        if compiled is None:
            table = self.program.tables[table_name]
            widths = [self.program.field_width(k.field) for k in table.keys]
            compiled = compile_table(
                table, widths, self.config.entries_for(table_name)
            )
            self._compiled_tables[table_name] = compiled
        return compiled

    def _apply_table(
        self, table_name: str, phv: Phv, steps: List[ExecutionStep]
    ) -> bool:
        table = self.program.tables[table_name]
        lookups = self.perf.table_lookups
        lookups[table_name] = lookups.get(table_name, 0) + 1
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
        steps.append(
            ExecutionStep(table=table_name, action=action_name, hit=hit)
        )
        return hit
