"""Behavioural switch simulator (bmv2/Tofino-model substitute).

Three tiers, each bit-identical to the one before: the reference
interpreter (the oracle: ``enable_flow_cache`` and
``enable_compiled_tables`` both off), precompiled header codecs and
match structures (:class:`repro.sim.match.CompiledTable`), and the
flow-result cache (:mod:`repro.sim.flowcache`) on top.  The perf
counters (:mod:`repro.sim.perf`) report what each replay cost.  See
``ARCHITECTURE.md`` for the per-tier throughput and why there is no
fourth tier.
"""

from repro.sim.events import ControllerPacket, ExecutionStep
from repro.sim.flowcache import (
    FlowAnalysis,
    FlowCache,
    FlowVerdict,
    analyze_program,
)
from repro.sim.hashing import ALGORITHMS, compute_hash
from repro.sim.match import CompiledTable, compile_table
from repro.sim.parser_engine import ParsedPacket, deparse_packet, parse_packet
from repro.sim.perf import PerfCounters
from repro.sim.runtime import RuntimeConfig, TableEntry
from repro.sim.state import SwitchState
from repro.sim.switch import BehavioralSwitch, SwitchResult

__all__ = [
    "ALGORITHMS",
    "BehavioralSwitch",
    "CompiledTable",
    "ControllerPacket",
    "ExecutionStep",
    "FlowAnalysis",
    "FlowCache",
    "FlowVerdict",
    "ParsedPacket",
    "PerfCounters",
    "RuntimeConfig",
    "SwitchResult",
    "SwitchState",
    "TableEntry",
    "analyze_program",
    "compile_table",
    "compute_hash",
    "deparse_packet",
    "parse_packet",
]
