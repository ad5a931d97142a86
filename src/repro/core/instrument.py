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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.exceptions import ProfilingError
from repro.p4.actions import ModifyField
from repro.p4.expressions import Const, FieldRef
from repro.p4.program import HeaderField, HeaderInstance, HeaderType, Program
from repro.p4.tables import Table
from repro.sim.runtime import RuntimeConfig, TableEntry

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
        profile_fields = headers.get(PROFILE_HEADER, {})
        executed = []
        for pair, field_name in self.bit_fields.items():
            if profile_fields.get(field_name):
                executed.append(pair)
        return executed

    def decode_packet_bits(self, output: bytes) -> List[Tuple[str, str]]:
        """Decode the profiling header straight off an emitted packet.

        The profiling header sits between the (original) parsed headers and
        the payload; we locate it by re-parsing the packet with the
        original program's parser.  Only valid for programs that do not
        add/remove packet headers during processing — the PHV-based decode
        above has no such restriction.
        """
        from repro.sim.parser_engine import parse_packet
        from repro.packets.packet import unpack_fields

        parsed = parse_packet(self.original, output)
        header_bytes = len(output) - len(parsed.payload)
        profile_type = self.program.header_types[PROFILE_HEADER_TYPE]
        blob = output[header_bytes : header_bytes + profile_type.byte_width]
        if len(blob) < profile_type.byte_width:
            raise ProfilingError(
                "output packet too short to carry the profiling header"
            )
        values = unpack_fields(profile_type, blob)
        executed = []
        for pair, field_name in self.bit_fields.items():
            if values.get(field_name):
                executed.append(pair)
        return executed


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
    for table_name in list(out.tables):
        table = out.tables[table_name]
        new_actions = []
        for action_name in table.actions:
            clone_name = _cloned_action_name(table_name, action_name)
            base = out.actions[action_name]
            out.actions[clone_name] = base.with_extra_primitives(
                [
                    ModifyField(
                        FieldRef(
                            PROFILE_HEADER,
                            _bit_field_name(table_name, action_name),
                        ),
                        Const(1),
                    )
                ],
                new_name=clone_name,
            )
            new_actions.append(clone_name)
        default_clone = _cloned_action_name(table_name, table.default_action)
        if default_clone not in out.actions:
            base = out.actions[table.default_action]
            out.actions[default_clone] = base.with_extra_primitives(
                [
                    ModifyField(
                        FieldRef(
                            PROFILE_HEADER,
                            _bit_field_name(
                                table_name, table.default_action
                            ),
                        ),
                        Const(1),
                    )
                ],
                new_name=default_clone,
            )
        out.tables[table_name] = Table(
            name=table.name,
            keys=table.keys,
            actions=tuple(new_actions),
            default_action=default_clone,
            default_action_args=table.default_action_args,
            size=table.size,
        )

    out.validate()
    return InstrumentedProgram(
        program=out, original=program, bit_fields=bit_fields
    )
