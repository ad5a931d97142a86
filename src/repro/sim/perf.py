"""Performance counters for the profiling engine.

Profiling a trace is the dominant cost of every P2GO run (the PGO survey's
"profile collection overhead" adoption barrier), so the behavioural switch
accounts for its own speed: packets processed, per-table lookup counts,
and the wall-clock time spent in batched runs.  The counters are
*observability only* — nothing in the simulator reads them back, and no
traversal writes them: the switch adds them up around each packet or
batch (the lookup counts from the step logs), so they can never
influence packet semantics and are always safe to reset
(:meth:`PerfCounters.reset`, done by ``BehavioralSwitch.reset_state``).

``packets_per_second`` is computed over the *batched* packets only
(``process_many`` timing); single-packet ``process`` calls are counted in
``packets`` but not timed, so mixed workloads don't skew the rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Dict, List


@dataclass
class PerfCounters:
    """Counters one :class:`~repro.sim.switch.BehavioralSwitch` maintains."""

    #: Total packets pushed through the switch.
    packets: int = 0
    #: Never incremented: the flow-result cache they counted is gone
    #: (DESIGN.md §12).  ``benchmarks/stack/workloads.py::replay_perf``
    #: still reads both; they go when it stops (ROADMAP item 6 (a)).
    cache_hits: int = 0
    cache_misses: int = 0
    #: Table applications (hit or miss), per table: the packet's steps
    #: for that table, counted per result, or once per distinct step log
    #: on a ``StepSink`` batch.
    table_lookups: Dict[str, int] = dc_field(default_factory=dict)
    #: Wall-clock seconds spent inside ``process_many`` batches.
    elapsed_seconds: float = 0.0
    #: Packets processed inside timed ``process_many`` batches.
    timed_packets: int = 0

    # ------------------------------------------------------------------
    def packets_per_second(self) -> float:
        """Throughput over the timed (batched) packets."""
        if self.elapsed_seconds <= 0.0:
            return 0.0
        return self.timed_packets / self.elapsed_seconds

    def reset(self) -> None:
        """Zero every counter (fresh profiling run)."""
        self.packets = 0
        self.table_lookups = {}
        self.elapsed_seconds = 0.0
        self.timed_packets = 0

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready snapshot (benchmark baselines, reports)."""
        return {
            "packets": self.packets,
            "table_lookups": dict(self.table_lookups),
            "elapsed_seconds": round(self.elapsed_seconds, 6),
            "packets_per_second": round(self.packets_per_second(), 1),
        }

    def render(self) -> str:
        """Human-readable counter block (CLI / report output)."""
        lines: List[str] = [
            f"packets processed:    {self.packets}",
        ]
        if self.elapsed_seconds > 0.0:
            lines.append(
                f"throughput:           "
                f"{self.packets_per_second():,.0f} packets/s "
                f"({self.timed_packets} packets in "
                f"{self.elapsed_seconds:.3f} s)"
            )
        if self.table_lookups:
            top = sorted(
                self.table_lookups.items(), key=lambda kv: (-kv[1], kv[0])
            )
            lines.append("table lookups:        " + ", ".join(
                f"{name}={count}" for name, count in top
            ))
        return "\n".join(lines)
