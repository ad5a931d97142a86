"""Program instrumentation for profiling (§3.1).

P2GO "modifies the program to append a profiling header after the original
headers of each packet.  The profiling header contains multiple fields,
each corresponding to an action.  Each field is set when the corresponding
action is executed."

Faithfully reproduced here:

* a ``p2go_profile`` header with one 1-bit field per (table, action) pair,
  added zero-filled by the parser for every packet (``auto_valid``) so it
  consumes no match-action resources and rides out with the deparsed
  packet,
* per-table clones of every action with one extra ``modify_field`` that
  sets the pair's bit — "each header field is modified in a distinct
  action", so instrumentation introduces no new dependencies and, as the
  paper claims, "cannot increase the program's required stages" (a
  property test over random programs pins this down).

``InstrumentedProgram.adapt_config`` rewrites a runtime configuration so
installed entries reference the cloned action names.

No verb replays the instrumented program: our simulator hands back each
packet's step log, so :class:`~repro.core.profiler.Profiler` folds that
instead.  :func:`reference_profile` is the paper's way kept as the
reference the fold is held to — it shares no code with it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from typing import Dict, List, Sequence, Tuple

from repro.exceptions import ProfilingError
from repro.p4.actions import ModifyField
from repro.p4.expressions import Const, FieldRef
from repro.p4.program import HeaderField, HeaderInstance, HeaderType, Program
from repro.sim.runtime import RuntimeConfig, TableEntry
from repro.sim.switch import BehavioralSwitch
from repro.traffic.generators import TracePacket

PROFILE_HEADER = "p2go_profile"
PROFILE_HEADER_TYPE = "p2go_profile_t"


def _bit_field_name(table: str, action: str) -> str:
    return f"{table}__{action}"


def _cloned_action_name(table: str, action: str) -> str:
    return f"{action}__prof__{table}"


@dataclass
class InstrumentedProgram:
    """The instrumented program plus the bit↔(table, action) mapping."""

    program: Program
    original: Program
    bit_fields: Dict[Tuple[str, str], str]  # (table, action) -> field name

    def adapt_config(self, config: RuntimeConfig) -> RuntimeConfig:
        """Rewrite entry/default action names to their per-table clones.

        The profiling-engine switch carries over unchanged, so a caller
        that asked for the reference interpreter profiles on it too.
        """
        adapted = RuntimeConfig(
            register_inits=list(config.register_inits),
            hashed_inits=list(config.hashed_inits),
            enable_compiled_tables=config.enable_compiled_tables,
        )
        for table_name, entries in config.entries.items():
            if table_name not in self.original.tables:
                raise ProfilingError(
                    f"runtime config references unknown table {table_name!r}"
                )
            for entry in entries:
                adapted.entries.setdefault(table_name, []).append(
                    TableEntry(
                        match=entry.match,
                        action=_cloned_action_name(table_name, entry.action),
                        action_args=entry.action_args,
                        priority=entry.priority,
                    )
                )
        for table_name, (action, args) in config.default_overrides.items():
            adapted.default_overrides[table_name] = (
                _cloned_action_name(table_name, action),
                args,
            )
        return adapted

    def decode_result_bits(
        self, headers: Dict[str, Dict[str, int]]
    ) -> List[Tuple[str, str]]:
        """(table, action) pairs whose bit is set in a final PHV."""
        values = headers.get(PROFILE_HEADER, {})
        return [
            pair for pair, field_name in self.bit_fields.items()
            if values.get(field_name)
        ]


def instrument(program: Program) -> InstrumentedProgram:
    """Produce the profiling variant of ``program``."""
    out = program.clone(new_name=f"{program.name}__instrumented")

    # One bit per (table, action) pair, in deterministic order.
    bit_fields: Dict[Tuple[str, str], str] = {}
    fields: List[HeaderField] = []
    for table_name in out.tables:
        table = out.tables[table_name]
        for action_name in table.all_action_names():
            field_name = _bit_field_name(table_name, action_name)
            bit_fields[(table_name, action_name)] = field_name
            fields.append(HeaderField(field_name, 1))
    if not fields:
        raise ProfilingError(
            f"program {program.name!r} has no tables to profile"
        )

    out.header_types[PROFILE_HEADER_TYPE] = HeaderType(
        name=PROFILE_HEADER_TYPE, fields=tuple(fields)
    )
    out.headers[PROFILE_HEADER] = HeaderInstance(
        name=PROFILE_HEADER,
        header_type=PROFILE_HEADER_TYPE,
        metadata=False,
        auto_valid=True,
    )

    # Clone every action per table, appending the bit-set primitive.
    for (table_name, action_name), field_name in bit_fields.items():
        clone_name = _cloned_action_name(table_name, action_name)
        base = out.actions[action_name]
        out.actions[clone_name] = base.with_extra_primitives(
            [ModifyField(FieldRef(PROFILE_HEADER, field_name), Const(1))],
            new_name=clone_name,
        )
    for table_name, table in list(out.tables.items()):
        out.tables[table_name] = replace(
            table,
            actions=tuple(
                _cloned_action_name(table_name, action)
                for action in table.actions
            ),
            default_action=_cloned_action_name(
                table_name, table.default_action
            ),
        )

    out.validate()
    return InstrumentedProgram(
        program=out, original=program, bit_fields=bit_fields
    )


def reference_profile(
    program: Program,
    config: RuntimeConfig,
    trace: Sequence[TracePacket],
) -> Dict[str, object]:
    """The §3.1 aggregates, built the paper's way: replay
    ``instrument(program)`` and read each packet's executed
    ``(table, action)`` pairs off its profiling bits.  The bits cannot
    tell a hit from a miss's default action, so hits, applied tables
    and forwarding decisions are read off the result.  Keyed by the
    name of the :class:`~repro.core.profiler.Profile` view each value
    must equal."""
    instrumented = instrument(program)
    switch = BehavioralSwitch(
        instrumented.program, instrumented.adapt_config(config)
    )
    results = switch.process_many(trace)
    bits = [
        frozenset(instrumented.decode_result_bits(r.headers)) for r in results
    ]
    steps = [step for result in results for step in result.steps]
    return {
        "total_packets": len(results),
        "apply_counts": dict(Counter(step.table for step in steps)),
        "hit_counts": dict(Counter(step.table for step in steps if step.hit)),
        "action_counts": dict(
            Counter(pair for pairs in bits for pair in pairs)
        ),
        "nonexclusive_sets": {pairs for pairs in bits if pairs},
        "decisions": tuple(r.forwarding_decision() for r in results),
    }
