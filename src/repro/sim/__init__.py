"""Behavioural switch simulator (bmv2/Tofino-model substitute).

One engine and the reference it is checked against, bit-identical on
identical inputs: the reference interpreter (the oracle:
``enable_compiled_tables`` off) and the compiled program — precompiled
header codecs, match structures (:class:`repro.sim.match.CompiledTable`)
and a per-program execution plan (:mod:`repro.sim.plan`).  The switch
is a simulator only: it keeps no counters and no controller queue —
what a replay cost is a view of its profile
(:class:`repro.core.profiler.PerfCounters`), and every fact about a
punted packet is on its :class:`SwitchResult`.  See
``ARCHITECTURE.md`` for the throughput of each and DESIGN.md §12 for
the tiers that were measured and retired.
"""

from repro.sim.events import ExecutionStep
from repro.sim.hashing import ALGORITHMS, compute_hash
from repro.sim.match import CompiledTable, compile_table
from repro.sim.parser_engine import ParsedPacket, deparse_packet, parse_packet
from repro.sim.runtime import RuntimeConfig, TableEntry
from repro.sim.state import SwitchState
from repro.sim.switch import BehavioralSwitch, SwitchResult

__all__ = [
    "ALGORITHMS",
    "BehavioralSwitch",
    "CompiledTable",
    "ExecutionStep",
    "ParsedPacket",
    "RuntimeConfig",
    "SwitchResult",
    "SwitchState",
    "TableEntry",
    "compile_table",
    "compute_hash",
    "deparse_packet",
    "parse_packet",
]
