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
control paths (tens, against thousands of packets), so a
:class:`Profile` stores what the replay saw — packets per distinct step
log, plus each packet's forwarding decision — and every aggregate is a
view that folds each path once, weighted by its packet count.  The §3.1
instrumented replay is kept as the reference those views are held to
(:func:`repro.core.instrument.reference_profile`;
``tests/test_profiling_engine.py`` and the fuzz ``engine`` axis compare
them one by one).

Replay goes through the simulator's batched entry point
(:meth:`~repro.sim.switch.BehavioralSwitch.process_many`): match
structures and the execution plan compile once per run, the sink is a
:class:`~repro.sim.switch.StepSink`, so the replay hands it each
packet's steps and forwarding decision and builds no result and no
deparse, and a session's trace is parsed once for all its replays
(:class:`~repro.sim.switch.ReplayTrace`).  What a replay cost in
packets and table lookups is a view of its profile
(:class:`PerfCounters`); the switch counts nothing.  The step logs
and forwarding decisions a profile is built from are bit-identical on
the engine and on the reference interpreter
(``enable_compiled_tables=False`` on the
:class:`~repro.sim.runtime.RuntimeConfig` selects the latter).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, fields
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    NamedTuple,
    Sequence,
    Set,
    Tuple,
)

from repro.p4.program import Program
from repro.sim.events import ExecutionStep
from repro.sim.runtime import RuntimeConfig
from repro.sim.switch import BehavioralSwitch, Decision, StepSink
from repro.traffic.generators import TracePacket

ActionPair = Tuple[str, str]  # (table, action)


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


class _Views(NamedTuple):
    """A profile's paths folded once: each path's facts with its packet
    count, and the §3.1 aggregates summed over them (dict keys in
    first-seen order, as a per-packet fold would add them)."""

    facts: Tuple[Tuple[PathFacts, int], ...]
    total_packets: int
    apply_counts: Dict[str, int]
    hit_counts: Dict[str, int]
    action_counts: Dict[ActionPair, int]
    nonexclusive_sets: Set[FrozenSet[ActionPair]]

    @classmethod
    def fold(cls, paths: Dict[Tuple[ExecutionStep, ...], int]) -> "_Views":
        facts = tuple((path_facts(steps), n) for steps, n in paths.items())
        apply_counts: Counter = Counter()
        hit_counts: Counter = Counter()
        action_counts: Counter = Counter()
        for (pairs, hit_tables, applied), count in facts:
            for table in applied:
                apply_counts[table] += count
            for table in hit_tables:
                hit_counts[table] += count
            for pair in pairs:
                action_counts[pair] += count
        return cls(
            facts=facts,
            total_packets=sum(paths.values()),
            apply_counts=dict(apply_counts),
            hit_counts=dict(hit_counts),
            action_counts=dict(action_counts),
            nonexclusive_sets={
                pairs for (pairs, _h, _a), _n in facts if pairs
            },
        )


@dataclass
class Profile:
    """The execution profile of one program on one trace: what its
    replay saw.  Every §3.1 aggregate is a read-only view of ``paths``,
    folded through :func:`path_facts` once per profile on first read;
    that fold is never pickled or compared."""

    program_name: str
    #: Packets per distinct step log, in first-seen order.
    paths: Dict[Tuple[ExecutionStep, ...], int]
    #: Per-packet forwarding decisions (egress, dropped, to_controller) —
    #: used by behaviour-preservation checks.  Equal decisions share one
    #: tuple, so a stored profile pickles each distinct one once.
    decisions: Tuple[Decision, ...]

    def _fold(self) -> _Views:
        views = self.__dict__.get("_folded")
        if views is None:
            views = self.__dict__["_folded"] = _Views.fold(self.paths)
        return views

    def __getstate__(self) -> Dict[str, object]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @property
    def total_packets(self) -> int:
        """Packets replayed."""
        return self._fold().total_packets

    @property
    def apply_counts(self) -> Dict[str, int]:
        """Packets each table was applied to (hit or miss)."""
        return self._fold().apply_counts

    @property
    def hit_counts(self) -> Dict[str, int]:
        """Packets whose lookup in each table hit."""
        return self._fold().hit_counts

    @property
    def action_counts(self) -> Dict[ActionPair, int]:
        """Packets each ``(table, action)`` was applied to."""
        return self._fold().action_counts

    @property
    def nonexclusive_sets(self) -> Set[FrozenSet[ActionPair]]:
        """The distinct per-packet sets of applied actions (Table 1)."""
        return self._fold().nonexclusive_sets

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
            for facts, count in self._fold().facts
            if facts.applied & wanted
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
        return any(
            src in facts.hit_tables and table in facts.applied
            for facts, _count in self._fold().facts
        )

    def hit_action_sets(self) -> List[FrozenSet[ActionPair]]:
        """Each packet's applied actions restricted to the tables it
        *hit* (Table 1's view), distinct and non-empty."""
        filtered = {
            frozenset(p for p in facts.pairs if p[0] in facts.hit_tables)
            for facts, _count in self._fold().facts
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


@dataclass(frozen=True)
class PerfCounters:
    """What a set of replays cost: packets and per-table lookups, read
    off their profiles (built by :meth:`of`).  A lookup is one table
    application, hit or miss, so a table applied twice to a packet
    counts twice."""

    packets: int = 0
    table_lookups: Dict[str, int] = field(default_factory=dict)

    #: Always 0: the flow-result cache they counted is gone (DESIGN.md
    #: §12).  ``benchmarks/stack/workloads.py::replay_perf`` still reads
    #: both; they go when it stops (ROADMAP, "Waiting for a
    #: ``benchmark``-archetype issue").
    cache_hits = 0
    cache_misses = 0

    @classmethod
    def of(cls, profiles: Iterable[Profile]) -> "PerfCounters":
        packets = 0
        lookups: Counter = Counter()
        for profile in profiles:
            for steps, count in profile.paths.items():
                packets += count
                for step in steps:
                    lookups[step.table] += count
        return cls(packets, dict(lookups))

    def render(self) -> str:
        """Human-readable counter block (CLI / report output)."""
        lines = [f"packets processed:    {self.packets}"]
        if self.table_lookups:
            top = sorted(
                self.table_lookups.items(), key=lambda kv: (-kv[1], kv[0])
            )
            lines.append("table lookups:        " + ", ".join(
                f"{name}={count}" for name, count in top
            ))
        return "\n".join(lines)


class Profiler:
    """Profiles a program by replaying a trace and folding step logs."""

    def __init__(self, program: Program, config: RuntimeConfig):
        self.program = program
        self.config = config

    def run(self, trace: Sequence[TracePacket]) -> Profile:
        """The profile of ``trace``."""
        sink = BehavioralSwitch(self.program, self.config).process_many(
            trace, into=StepSink()
        )
        return Profile(
            program_name=self.program.name,
            paths=sink.paths,
            decisions=tuple(sink.decisions),
        )


def profile_program(
    program: Program,
    config: RuntimeConfig,
    trace: Sequence[TracePacket],
) -> Profile:
    """One-call convenience wrapper."""
    return Profiler(program, config).run(trace)
