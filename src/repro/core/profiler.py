"""Phase 1 — building the program profile (§3.1).

P2GO replays the traffic trace through the program with its
match-action rules installed and infers (i) each table's hit rate and
(ii) the sets of actions applied to the same packet (non-exclusive
actions, Table 1).  The paper instruments the program to learn which
actions ran, because the Tofino simulator hands back only packets; our
simulator also hands back each packet's step log
(:attr:`~repro.sim.switch.SwitchResult.steps`, one ``(table, action,
hit)`` per table application), so the profile is a fold over those
steps of the program *as written* — :func:`path_facts` is the one
fold.  A trace takes only as many distinct step logs as the program has
control paths (tens, against thousands of packets), so
:meth:`Profiler.run` folds each distinct step log once and weights it
by its packet count.  The §3.1 instrumented replay is kept as the reference
this fold is held to (:func:`repro.core.instrument.reference_profile`;
``tests/test_profiling_engine.py`` and the fuzz ``engine`` axis compare
every field).

Replay goes through the simulator's batched entry point
(:meth:`~repro.sim.switch.BehavioralSwitch.process_many`): match
structures and the execution plan compile once per run, each result is
folded as the replay produces it (no result list outlives the replay),
a session's trace is parsed once for all its replays
(:class:`~repro.sim.switch.ReplayTrace`), and
:meth:`Profiler.run` returns the run's
:class:`~repro.sim.perf.PerfCounters` beside the profile.  The step logs
and forwarding decisions a profile is built from are bit-identical on
the engine and on the reference interpreter
(``enable_compiled_tables=False`` on the
:class:`~repro.sim.runtime.RuntimeConfig` selects the latter).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field as dc_field
from typing import Dict, FrozenSet, List, NamedTuple, Sequence, Set, Tuple

from repro.p4.program import Program
from repro.sim.events import ExecutionStep
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
    #: (summing double-counts, taking the max undercounts); the offline
    #: re-check of an offload's budget needs the true union, so the
    #: profiler keeps the set-valued aggregate (bounded by the number of
    #: distinct table combinations the control flow can produce).
    apply_sets: Dict[FrozenSet[str], int] = dc_field(default_factory=dict)
    #: Pairs applied on some packet where their table *hit* (the rest
    #: only ever ran as a miss's default action).
    hit_pairs: FrozenSet[ActionPair] = frozenset()

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
                pair[0] == src and pair in self.hit_pairs
                for pair in group
            ):
                continue
            if any(pair[0] == table for pair in group):
                return True
        return False

    def hit_action_sets(self) -> List[FrozenSet[ActionPair]]:
        """Observed sets restricted to *hit* actions (Table 1's view)."""
        filtered = {
            group & self.hit_pairs for group in self.nonexclusive_sets
        } - {frozenset()}
        return sorted(filtered, key=lambda g: (len(g), sorted(g)))

    def same_behavior_as(self, other: "Profile") -> bool:
        """Profile equality as §3.3's verification defines it: identical
        hit rates, table and action applications, non-exclusive sets,
        and per-packet forwarding decisions."""
        return not self.behavior_diff(other)

    def behavior_diff(self, other: "Profile") -> List[str]:
        """Human-readable reasons two profiles differ: every field
        :meth:`same_behavior_as` compares gives one when it differs, so
        the list is empty exactly when the profiles count as the same."""
        reasons: List[str] = []
        if self.total_packets != other.total_packets:
            reasons.append(
                f"packet counts differ ({self.total_packets} vs "
                f"{other.total_packets})"
            )
        for what, mine, theirs in (
            ("hit", self.hit_counts, other.hit_counts),
            ("apply", self.apply_counts, other.apply_counts),
            ("action", self.action_counts, other.action_counts),
        ):
            for key in sorted(set(mine) | set(theirs)):
                a, b = mine.get(key, 0), theirs.get(key, 0)
                if a != b:
                    name = key if isinstance(key, str) else ".".join(key)
                    reasons.append(
                        f"{what} count of {name} changed: {a} -> {b}"
                    )
        gained = other.nonexclusive_sets - self.nonexclusive_sets
        if gained:
            reasons.append(
                f"{len(gained)} new non-exclusive action set(s) appeared"
            )
        lost = self.nonexclusive_sets - other.nonexclusive_sets
        if lost:
            reasons.append(
                f"{len(lost)} non-exclusive action set(s) no longer observed"
            )
        changed = abs(len(self.decisions) - len(other.decisions)) + sum(
            x != y for x, y in zip(self.decisions, other.decisions)
        )
        if changed:
            reasons.append(
                f"forwarding decisions changed for {changed} packet(s)"
            )
        return reasons


class PathFacts(NamedTuple):
    """What one step log says — the unit a profile folds."""

    #: ``(table, action)`` of every table application.
    pairs: FrozenSet[ActionPair]
    #: Tables whose lookup hit.
    hit_tables: FrozenSet[str]
    #: Tables applied, hit or miss.
    applied: FrozenSet[str]


def path_facts(steps: Tuple[ExecutionStep, ...]) -> PathFacts:
    """Fold one step log (a :attr:`~repro.sim.switch.SwitchResult.steps`
    as a tuple, so that callers can key on it)."""
    return PathFacts(
        pairs=frozenset((step.table, step.action) for step in steps),
        hit_tables=frozenset(step.table for step in steps if step.hit),
        applied=frozenset(step.table for step in steps),
    )


class _ReplaySink:
    """What :meth:`Profiler.run` keeps of each result as the replay
    produces it: packets per step log, in first-seen order, and the
    forwarding decision.  The result itself is dropped at once.

    Equal decisions share one tuple, so a stored profile pickles each
    distinct decision once and every repeat as a memo reference."""

    __slots__ = ("paths", "decisions", "_seen")

    def __init__(self):
        self.paths: Counter = Counter()
        self.decisions: List[Tuple[int, bool, bool]] = []
        self._seen: Dict[Tuple[int, bool, bool], Tuple[int, bool, bool]] = {}

    def append(self, result) -> None:
        self.paths[tuple(result.steps)] += 1
        decision = result.forwarding_decision()
        self.decisions.append(self._seen.setdefault(decision, decision))


class Profiler:
    """Profiles a program by replaying a trace and folding step logs."""

    def __init__(self, program: Program, config: RuntimeConfig):
        self.program = program
        self.config = config

    def run(
        self, trace: Sequence[TracePacket]
    ) -> Tuple[Profile, PerfCounters]:
        """The profile of ``trace`` plus the replay's perf counters
        (packets/s, per-table lookups, …)."""
        switch = BehavioralSwitch(self.program, self.config)
        sink = switch.process_many(trace, into=_ReplaySink())
        # Paths in first-seen order, so every dict below gets its keys
        # in the order a per-packet fold would have added them.
        paths = sink.paths
        apply_counts: Counter = Counter()
        hit_counts: Counter = Counter()
        action_counts: Counter = Counter()
        apply_sets: Counter = Counter()
        nonexclusive_sets: Set[FrozenSet[ActionPair]] = set()
        hit_pairs: List[ActionPair] = []
        for steps, count in paths.items():
            pairs, hit_tables, applied = path_facts(steps)
            for table in applied:
                apply_counts[table] += count
            for table in hit_tables:
                hit_counts[table] += count
            for pair in pairs:
                action_counts[pair] += count
            if pairs:
                nonexclusive_sets.add(pairs)
                apply_sets[applied] += count
            hit_pairs.extend(a for a in pairs if a[0] in hit_tables)
        profile = Profile(
            program_name=self.program.name,
            total_packets=len(sink.decisions),
            apply_counts=dict(apply_counts),
            hit_counts=dict(hit_counts),
            action_counts=dict(action_counts),
            nonexclusive_sets=nonexclusive_sets,
            decisions=tuple(sink.decisions),
            apply_sets=dict(apply_sets),
            hit_pairs=frozenset(hit_pairs),
        )
        return profile, switch.perf

    def profile(self, trace: Sequence[TracePacket]) -> Profile:
        return self.run(trace)[0]


def profile_program(
    program: Program,
    config: RuntimeConfig,
    trace: Sequence[TracePacket],
) -> Profile:
    """One-call convenience wrapper."""
    return Profiler(program, config).profile(trace)
