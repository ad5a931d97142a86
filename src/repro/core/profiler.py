"""Phase 1 — building the program profile (§3.1).

P2GO loads the instrumented program into the simulator, installs the
match-action rules, replays the traffic trace, and infers from the marked
packets: (i) each table's hit rate, and (ii) the sets of actions applied
to the same packet (non-exclusive actions, Table 1).

Replay goes through the simulator's batched entry point
(:meth:`~repro.sim.switch.BehavioralSwitch.process_many`): match
structures and the execution plan compile once per run, and the run's
:class:`~repro.sim.perf.PerfCounters` ride along on
:class:`ProfilingRun` / :meth:`Profiler.profile_trace`.  The per-packet
profiling bits, execution steps, and forwarding decisions the profile
is built from are bit-identical on the engine and on the reference
interpreter (``enable_compiled_tables=False`` on the
:class:`~repro.sim.runtime.RuntimeConfig` selects the latter;
``tests/test_profiling_engine.py`` pins the equivalence).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

from repro.core.instrument import InstrumentedProgram, instrument
from repro.p4.program import Program
from repro.sim.perf import PerfCounters
from repro.sim.runtime import RuntimeConfig
from repro.sim.switch import BehavioralSwitch
from repro.traffic.generators import TracePacket

ActionPair = Tuple[str, str]  # (table, action)


@dataclass
class Profile:
    """The execution profile of one program on one trace."""

    program_name: str
    total_packets: int
    apply_counts: Dict[str, int]
    hit_counts: Dict[str, int]
    action_counts: Dict[ActionPair, int]
    nonexclusive_sets: Set[FrozenSet[ActionPair]]
    #: Per-packet forwarding decisions (egress, dropped, to_controller) —
    #: used by behaviour-preservation checks.
    decisions: Tuple[Tuple[int, bool, bool], ...] = ()
    #: Distinct per-packet applied-table sets -> packet counts.  Per-table
    #: apply/hit counts cannot answer "how many packets traversed *any* of
    #: these tables" when the tables are reached by disjoint packet sets
    #: (summing double-counts, taking the max undercounts); the drift
    #: detector's controller-load re-check needs the true union, so the
    #: profiler keeps the set-valued aggregate (bounded by the number of
    #: distinct table combinations the control flow can produce).
    apply_sets: Dict[FrozenSet[str], int] = dc_field(default_factory=dict)

    def hit_rate(self, table: str) -> float:
        """Fraction of all packets that *matched* the table."""
        if self.total_packets == 0:
            return 0.0
        return self.hit_counts.get(table, 0) / self.total_packets

    def apply_rate(self, table: str) -> float:
        """Fraction of all packets the table was applied to (hit or miss)."""
        if self.total_packets == 0:
            return 0.0
        return self.apply_counts.get(table, 0) / self.total_packets

    def traversal_rate(self, tables) -> float:
        """Fraction of all packets that traversed *any* of ``tables``
        (the union over packets, not a per-table aggregate — disjoint
        packet sets reaching different tables are each counted once)."""
        if self.total_packets == 0:
            return 0.0
        wanted = frozenset(tables)
        covered = sum(
            count
            for applied, count in self.apply_sets.items()
            if applied & wanted
        )
        return covered / self.total_packets

    def actions_coapplied(self, a: ActionPair, b: ActionPair) -> bool:
        """Were both actions ever applied to the same packet?"""
        return any(
            a in group and b in group for group in self.nonexclusive_sets
        )

    def action_coapplied_with_table(self, a: ActionPair, table: str) -> bool:
        """Was ``a`` ever applied to a packet that also traversed
        ``table`` (any of its actions, including the default)?"""
        for group in self.nonexclusive_sets:
            if a not in group:
                continue
            if any(pair[0] == table for pair in group):
                return True
        return False

    def hit_coapplied_with_table(self, src: str, table: str) -> bool:
        """Was some packet a *hit* in ``src`` while also traversing
        ``table`` (any action, including the default)?

        Phase 2's miss-branch relocation suppresses ``table`` exactly on
        the packets where ``src`` hits, so any such packet proves the
        rewrite would change behaviour on this trace.
        """
        for group in self.nonexclusive_sets:
            if not any(
                pair[0] == src and pair in self._hit_pairs
                for pair in group
            ):
                continue
            if any(pair[0] == table for pair in group):
                return True
        return False

    def hit_action_sets(self) -> List[FrozenSet[ActionPair]]:
        """Observed sets restricted to *hit* actions (Table 1's view)."""
        hits = {
            pair for pair, count in self.action_counts.items()
            if count > 0 and self._is_hit_pair(pair)
        }
        filtered: Set[FrozenSet[ActionPair]] = set()
        for group in self.nonexclusive_sets:
            reduced = frozenset(pair for pair in group if pair in hits)
            if reduced:
                filtered.add(reduced)
        return sorted(filtered, key=lambda g: (len(g), sorted(g)))

    def _is_hit_pair(self, pair: ActionPair) -> bool:
        # Hit pairs are recorded with hit=True during profiling; we keep a
        # side index of pairs seen as hits.
        return pair in self._hit_pairs

    _hit_pairs: Set[ActionPair] = dc_field(default_factory=set)

    def same_behavior_as(self, other: "Profile") -> bool:
        """Profile equality as §3.3's verification defines it: identical
        hit rates, action applications, non-exclusive sets, and per-packet
        forwarding decisions."""
        return (
            self.total_packets == other.total_packets
            and self.hit_counts == other.hit_counts
            and self.apply_counts == other.apply_counts
            and self.action_counts == other.action_counts
            and self.nonexclusive_sets == other.nonexclusive_sets
            and self.decisions == other.decisions
        )

    def behavior_diff(self, other: "Profile") -> List[str]:
        """Human-readable reasons two profiles differ (for observations)."""
        reasons: List[str] = []
        if self.total_packets != other.total_packets:
            reasons.append(
                f"packet counts differ ({self.total_packets} vs "
                f"{other.total_packets})"
            )
        tables = set(self.hit_counts) | set(other.hit_counts)
        for table in sorted(tables):
            a = self.hit_counts.get(table, 0)
            b = other.hit_counts.get(table, 0)
            if a != b:
                reasons.append(
                    f"hit count of {table} changed: {a} -> {b}"
                )
        if self.nonexclusive_sets != other.nonexclusive_sets:
            gained = other.nonexclusive_sets - self.nonexclusive_sets
            if gained:
                reasons.append(
                    f"{len(gained)} new non-exclusive action set(s) appeared"
                )
        if self.decisions != other.decisions:
            changed = sum(
                1 for x, y in zip(self.decisions, other.decisions) if x != y
            )
            if changed:
                reasons.append(
                    f"forwarding decisions changed for {changed} packet(s)"
                )
        return reasons


@dataclass
class ProfilingRun:
    """A profile plus the artifacts that produced it."""

    profile: Profile
    instrumented: InstrumentedProgram
    switch: BehavioralSwitch

    @property
    def perf(self) -> PerfCounters:
        """The replay's perf counters (packets/s, per-table lookups, …)."""
        return self.switch.perf


class Profiler:
    """Profiles a program by instrumented trace replay."""

    def __init__(self, program: Program, config: RuntimeConfig):
        self.program = program
        self.config = config

    def run(self, trace: Sequence[TracePacket]) -> ProfilingRun:
        instrumented = instrument(self.program)
        adapted = instrumented.adapt_config(self.config)
        switch = BehavioralSwitch(instrumented.program, adapted)
        results = switch.process_trace(trace)

        apply_counts: Dict[str, int] = {}
        hit_counts: Dict[str, int] = {}
        action_counts: Dict[ActionPair, int] = {}
        groups: Set[FrozenSet[ActionPair]] = set()
        hit_pairs: Set[ActionPair] = set()
        decisions: List[Tuple[int, bool, bool]] = []
        apply_sets: Dict[FrozenSet[str], int] = {}

        for result in results:
            pairs = instrumented.decode_result_bits(result.headers)
            per_packet: Set[ActionPair] = set(pairs)
            if per_packet:
                groups.add(frozenset(per_packet))
            # Hit/miss resolution comes from the execution steps (a bit
            # tells *that* the action ran; the step log tells us whether it
            # was the default).
            hit_tables = set()
            for step in result.steps:
                apply_counts[step.table] = apply_counts.get(step.table, 0) + 1
                if step.hit:
                    hit_tables.add(step.table)
                    hit_counts[step.table] = hit_counts.get(step.table, 0) + 1
            for pair in per_packet:
                action_counts[pair] = action_counts.get(pair, 0) + 1
                if pair[0] in hit_tables:
                    hit_pairs.add(pair)
            if result.steps:
                applied = frozenset(step.table for step in result.steps)
                apply_sets[applied] = apply_sets.get(applied, 0) + 1
            decisions.append(result.forwarding_decision())

        profile = Profile(
            program_name=self.program.name,
            total_packets=len(results),
            apply_counts=apply_counts,
            hit_counts=hit_counts,
            action_counts=action_counts,
            nonexclusive_sets=groups,
            decisions=tuple(decisions),
            apply_sets=apply_sets,
        )
        profile._hit_pairs = hit_pairs
        return ProfilingRun(
            profile=profile, instrumented=instrumented, switch=switch
        )

    def profile(self, trace: Sequence[TracePacket]) -> Profile:
        return self.run(trace).profile

    def profile_trace(
        self, trace: Sequence[TracePacket]
    ) -> Tuple[Profile, PerfCounters]:
        """Batched profiling plus the engine's perf counters."""
        run = self.run(trace)
        return run.profile, run.perf


def profile_program(
    program: Program,
    config: RuntimeConfig,
    trace: Sequence[TracePacket],
) -> Profile:
    """One-call convenience wrapper."""
    return Profiler(program, config).profile(trace)
