"""Memory accounting: how many bytes and blocks each table needs.

The accounting model follows RMT conventions:

* An **exact** table lives entirely in SRAM.  Each entry stores the key,
  the widest action's runtime data, and a fixed per-entry overhead
  (action id + version bits), so its match memory is
  ``bytes(entry_bits) * size``.
* A **ternary/LPM** table keeps only the key (plus mask, folded into the
  key width) in TCAM; action data and per-entry overhead spill into SRAM
  and are reported separately by :func:`table_overhead_bytes`.
* A **keyless** table (always-miss, default-action-only) needs no match
  memory at all — it still occupies a table slot in its stage.
* A **register array** is SRAM owned by exactly one table (the RMT
  stateful-ALU constraint: one ALU, one home stage); two tables touching
  the same array is a compile error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Tuple

from repro.exceptions import CompilationError
from repro.p4.program import Program
from repro.p4.tables import Table
from repro.p4.types import bytes_for_bits, pinned
from repro.target.model import TargetModel

#: Per-entry overhead bits: action id + entry version/validity bits.
ENTRY_OVERHEAD_BITS = 16

#: Action data width per runtime parameter.  Entries store parameters in
#: fixed 32-bit lanes (the RMT action-memory word), whatever the width of
#: the field they eventually feed.
ACTION_PARAM_BITS = 32


def table_key_bits(program: Program, table: Table) -> int:
    """Total width of the table's match key."""
    return sum(program.field_width(key.field) for key in table.keys)


def table_action_data_bits(program: Program, table: Table) -> int:
    """Widest per-entry action data over the table's hit actions."""
    widest = 0
    for action_name in table.actions:
        action = program.actions[action_name]
        widest = max(widest, ACTION_PARAM_BITS * len(action.parameters))
    return widest


def table_entry_bits(program: Program, table: Table) -> int:
    """Bits one installed entry occupies: key + action data + overhead."""
    if not table.keys:
        return 0
    return (
        table_key_bits(program, table)
        + table_action_data_bits(program, table)
        + ENTRY_OVERHEAD_BITS
    )


def table_match_bytes(program: Program, table: Table) -> int:
    """Bytes of match memory (TCAM for ternary tables, SRAM otherwise)."""
    if not table.keys:
        return 0
    if table.is_ternary:
        return bytes_for_bits(table_key_bits(program, table)) * table.size
    return bytes_for_bits(table_entry_bits(program, table)) * table.size


def table_overhead_bytes(program: Program, table: Table) -> int:
    """SRAM bytes a ternary table needs beside its TCAM key memory.

    Exact tables fold action data and overhead into their SRAM entries,
    so their overhead is zero by definition.
    """
    if not table.keys or not table.is_ternary:
        return 0
    side_bits = table_action_data_bits(program, table) + ENTRY_OVERHEAD_BITS
    return bytes_for_bits(side_bits) * table.size


def register_owner_map(program: Program) -> Dict[str, str]:
    """Map each used register array to the single table that owns it.

    Raises :class:`~repro.exceptions.CompilationError` when two tables
    touch the same array (no shared stateful ALUs on RMT).  Arrays no
    table touches are absent from the map — they consume no pipeline
    memory.
    """
    owners: Dict[str, str] = {}
    for register_name in program.registers:
        accessors = program.tables_accessing_register(register_name)
        if not accessors:
            continue
        if len(accessors) > 1:
            raise CompilationError(
                f"register {register_name!r} is accessed by multiple "
                f"tables ({', '.join(sorted(accessors))}); register arrays "
                "must be owned by exactly one table"
            )
        owners[register_name] = accessors[0]
    return owners


@dataclass(frozen=True)
class TableFootprint:
    """Everything the allocator needs to know about one table's memory."""

    table: str
    is_ternary: bool
    entry_bits: int
    match_bytes: int
    overhead_bytes: int
    #: ``(register name, SRAM bytes)`` for every array this table owns.
    registers: Tuple[Tuple[str, int], ...]

    def match_blocks(self, target: TargetModel) -> int:
        """Match-memory blocks (TCAM if ternary, SRAM otherwise)."""
        if self.match_bytes == 0:
            return 0
        if self.is_ternary:
            return target.tcam_blocks_for(self.match_bytes)
        return target.sram_blocks_for(self.match_bytes)

    def register_blocks(self, target: TargetModel) -> List[Tuple[str, int]]:
        """``(register name, SRAM blocks)`` per owned array."""
        return [
            (name, target.sram_blocks_for(nbytes))
            for name, nbytes in self.registers
        ]

    def total_sram_blocks(self, target: TargetModel) -> int:
        """SRAM blocks this table pins: exact-match memory + registers."""
        total = 0 if self.is_ternary else self.match_blocks(target)
        total += sum(blocks for _name, blocks in self.register_blocks(target))
        return total


class _MemoryFacts(NamedTuple):
    """What a table's memory is per entry, whatever its size: its
    footprint is these times ``table.size``."""

    is_ternary: bool
    #: Match-key width: TCAM bits per entry of a ternary table.
    key_bits: int
    #: :func:`table_entry_bits`: SRAM bits per entry of an exact table.
    entry_bits: int
    #: SRAM bits per entry beside a ternary table's TCAM key.
    side_bits: int


def _memory_facts(program: Program) -> Dict[str, _MemoryFacts]:
    facts: Dict[str, _MemoryFacts] = {}
    for table in program.tables.values():
        side_bits = 0
        if table.is_ternary:  # never a keyless table
            side_bits = (
                table_action_data_bits(program, table) + ENTRY_OVERHEAD_BITS
            )
        facts[table.name] = _MemoryFacts(
            table.is_ternary,
            table_key_bits(program, table),
            table_entry_bits(program, table),
            side_bits,
        )
    return facts


def compute_footprints(program: Program) -> Dict[str, TableFootprint]:
    """Footprints for every table of the program, in declaration order.

    Everything but the sizes is derived once per program value and
    carried across a resize (``repro.p4.program.SIZE_FREE_PINS``), so
    a phase-3 probe only multiplies: it derives no table's per-entry
    facts and walks no action."""
    owners = register_owner_map(program)
    registers_of: Dict[str, List[Tuple[str, int]]] = {}
    for register_name, owner in owners.items():
        array = program.registers[register_name]
        registers_of.setdefault(owner, []).append(
            (register_name, array.memory_bytes)
        )
    facts = pinned(program, "_memory_facts", _memory_facts)
    footprints: Dict[str, TableFootprint] = {}
    for table in program.tables.values():
        fact = facts[table.name]
        match_bits = fact.key_bits if fact.is_ternary else fact.entry_bits
        footprints[table.name] = TableFootprint(
            table=table.name,
            is_ternary=fact.is_ternary,
            entry_bits=fact.entry_bits,
            match_bytes=bytes_for_bits(match_bits) * table.size,
            overhead_bytes=bytes_for_bits(fact.side_bits) * table.size,
            registers=tuple(registers_of.get(table.name, ())),
        )
    return footprints
