"""The optimization session: shared, memoizing compile/profile state.

Every P2GO phase probes candidate programs by compiling them and
re-profiling them on the same trace — the halving binary search of
phase 3 (its table resizes' profiles are their parent's) and the
per-candidate redirect variants of phase 4 (compiled; their loads are
read off the current program's profile) alone account
for dozens of :func:`~repro.target.compiler.compile_program` and
:class:`~repro.core.profiler.Profiler` invocations per run, and the seed
orchestrator repeated several of them verbatim (the accepted resize was
re-profiled by the orchestrator right after phase 3 verified it; the
accepted offload variant was re-profiled right after phase 4 evaluated
it).  An :class:`OptimizationContext` makes all of that probing go
through one content-keyed memo cache, so asking the same question twice
— even with distinct but equal-content :class:`~repro.p4.program.Program`
or :class:`~repro.sim.runtime.RuntimeConfig` objects — costs a dict
lookup.

Keying:

* **Programs** are keyed by the SHA-1 of their printed DSL
  (:func:`~repro.p4.dsl.print_program` is a faithful round-trippable
  serialization; ``tests/test_dsl_roundtrip.py`` pins that).  A program
  is a frozen value, so the digest is computed once per value and
  pinned on it (DESIGN.md §16): the session holds no per-program cache,
  and a rejected candidate dies with its last reference.
* **Compiles** are keyed by (program key, *target content fingerprint*)
  — :meth:`~repro.target.model.TargetModel.fingerprint`, every field of
  the target, not just its name.  Two targets that share a name but
  differ in shape (a hand-written target JSON left at the default
  ``rmt-default`` name, or a design-space sweep's generated shapes)
  therefore never share a compile entry, in the memo tier or in the
  persistent store.
* **Analyses** — the ingress and egress TDGs a compile is built from —
  are keyed by :func:`~repro.analysis.structure.structure_key`:
  everything the analyses read (parser valid-header sets, control trees
  and conditions, each table's keys and actions, each action's
  read/write sets) and nothing else — no size, entry, default-action
  argument or target — so every phase-3 memory candidate and every
  shape of a design-space sweep shares one.  The lookup is lazy: only
  a compile that *executes* computes the key and asks (a third probe
  kind on the same memo → disk → execute path); a compile the memo or
  the store answered costs neither.
* **Configs** are keyed by their canonical content (sorted entries,
  default overrides, register inits, engine switches) — *not* by the
  ``mutations`` stamp, so two ``restricted_to`` results with equal
  content share one cache line.
* **Profiles** are keyed by (profile key, config key, trace key).  The
  profile key (:func:`~repro.p4.dsl.printer.profile_key`) is the
  program key without table sizes: no replay reads a table's capacity,
  so phase 3's table resizes share their parent's profile, in the memo
  and in the store.  A config that does not fit a program's sizes
  still raises (:meth:`~repro.sim.runtime.RuntimeConfig.check_capacity`
  runs before the lookup).  Phase 2's licensed relocation replays
  step for step like its parent, so its parent's profile is entered
  under its own key by :meth:`~OptimizationContext.adopt_profile` — in
  the memo only, and not as a probe: the probe log and the store never
  see it, and the next probe of that program is a memo hit.  The trace
  key is re-read whenever ``ctx.trace`` is assigned, so a session
  whose trace is swapped (e.g. after an
  :class:`~repro.core.online.OnlineProfiler` drift alert) never serves
  profiles recorded on the old traffic.  In-place mutation of the trace
  list bypasses the setter — assign a new trace instead.  The setter
  keeps a :class:`~repro.sim.switch.ReplayTrace` it is given (its
  fingerprint is hashed once per trace object, however many sessions
  adopt it) and makes any other trace one, so the session's replays
  parse each packet once per parser, not once per replay; swapping the
  trace or closing the session drops the parses.

The session also carries:

* **The probe log** (:attr:`OptimizationContext.probes`): one
  :class:`ProbeRecord` per ``compile()`` / ``profile()`` call — and per
  analysis an executed compile asked for — naming the :class:`Source`
  that answered it: the memo, the disk store, or an execution.  It is
  the one record of what the session did; everything else is a view of
  it.  :class:`SessionCounters` (``ctx.counters``, and each
  ``P2GOResult``'s counters over its own run's slice) tallies it, and
  :meth:`~OptimizationContext.replay_perf` reads the
  :class:`~repro.core.profiler.PerfCounters` off the profiles it
  executed from a given record on — how the pass manager attributes
  replay cost to the phase that paid it.  Replays before that record
  (pipeline setup, a co-resident
  :class:`~repro.core.online.OnlineProfiler`) are not attributed to the
  phase.
* **Current state**: ``program`` / ``config`` are what the optimization
  has accepted so far.  Passes never assign them: a pass returns its
  candidate in a :class:`~repro.core.passes.PassResult` and the pass
  manager assigns it once the review accepted it, so a vetoed change is
  never applied.

Persistent store (disk tier)
----------------------------

``store=`` attaches a :class:`~repro.core.store.SessionStore`: a
disk-backed, content-addressed second tier behind the memo cache (the
keys are the same fingerprints, so the two tiers can never disagree).
Every probe — any kind; one ``_probe`` spells it — goes
**memo → disk → execute**:

* a *memo hit* costs a dict lookup (logged :attr:`Source.MEMO`);
* a *disk hit* unpickles the entry, hydrates the memo cache, and is
  logged :attr:`Source.DISK` — it is **not** an execution and its
  replay cost is never attributed to a phase (the cost was paid by
  whichever run wrote the entry);
* an *execution* runs the compiler / replays the trace and writes the
  result through to the store at once, under the key it was executed
  with (logged :attr:`Source.EXECUTED` when it is handed off, so a
  compile that raises still counts).

The disk tier's policy — who executes a probe that several processes
want, and when its entry becomes visible — lives behind
:meth:`~repro.core.store.SessionStore.acquire` (DESIGN.md §10); the
session only carries the lease that call may hand it until the probe is
published or has raised.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from enum import Enum
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.analysis.structure import analyse, structure_key
from repro.core.profiler import PerfCounters, Profile, Profiler
from repro.core.store import KINDS, SessionStore
from repro.p4.dsl.printer import profile_key, program_fingerprint
from repro.p4.program import Program
from repro.sim.runtime import RuntimeConfig, config_fingerprint
from repro.sim.switch import ReplayTrace, trace_fingerprint
from repro.target.compiler import CompileResult, compile_program
from repro.target.model import DEFAULT_TARGET, TargetModel
from repro.traffic.generators import TracePacket

__all__ = [
    "OptimizationContext",
    "ProbeRecord",
    "SessionCounters",
    "Source",
    "config_fingerprint",
    "program_fingerprint",
    "trace_fingerprint",
]


class Source(Enum):
    """What answered a probe.  The value names the
    :class:`SessionCounters` field (``<kind>_<value>``) it tallies in."""

    #: The session's in-memory memo.
    MEMO = "hits"
    #: The persistent store: not an execution — the cost was paid by
    #: whichever run wrote the entry.
    DISK = "disk_hits"
    #: The compiler, the replayer or the analyses actually ran.
    EXECUTED = "executions"


class ProbeRecord(NamedTuple):
    """One probe the session answered: its kind (one of
    :data:`~repro.core.store.KINDS`), content key and :class:`Source`."""

    kind: str
    key: Tuple
    source: Source


@dataclass(frozen=True)
class SessionCounters:
    """How often a stretch of probes compiled, profiled and analysed,
    and what answered each: a tally of :class:`ProbeRecord` entries,
    built by :meth:`of`.  An analysis is asked for once per *executed*
    compile and by nothing else."""

    compile_calls: int = 0
    compile_executions: int = 0
    compile_hits: int = 0
    compile_disk_hits: int = 0
    profile_calls: int = 0
    profile_executions: int = 0
    profile_hits: int = 0
    profile_disk_hits: int = 0
    analysis_calls: int = 0
    analysis_executions: int = 0
    analysis_hits: int = 0
    analysis_disk_hits: int = 0

    @classmethod
    def of(cls, records: Iterable[ProbeRecord]) -> "SessionCounters":
        counts: Counter = Counter()
        for kind, _key, source in records:
            counts[f"{kind}_calls"] += 1
            counts[f"{kind}_{source.value}"] += 1
        return cls(**counts)

    def as_dict(self) -> Dict[str, int]:
        return asdict(self)

    def render(self) -> str:
        return "; ".join(
            f"{kind}: {getattr(self, kind + '_calls')} calls, "
            f"{getattr(self, kind + '_executions')} executed "
            f"({getattr(self, kind + '_hits')} memo hits, "
            f"{getattr(self, kind + '_disk_hits')} disk hits)"
            for kind in KINDS
        )


class OptimizationContext:
    """Current optimization state plus the memoizing compile/profile
    session every phase shares.

    ``store`` attaches a :class:`~repro.core.store.SessionStore` disk
    tier behind the memo cache (memo → disk → execute; executed probes
    are written through, and concurrent sessions on one root — in any
    process — execute each probe once).
    """

    def __init__(
        self,
        program: Program,
        config: RuntimeConfig,
        trace: Sequence[TracePacket],
        target: TargetModel = DEFAULT_TARGET,
        store: Optional[SessionStore] = None,
    ):
        self.program = program
        self.config = config
        self.target = target
        #: Disk tier behind the memo cache (None = memory only).
        self.store = store
        #: Append-only: one record per probe, in the order asked.
        self.probes: List[ProbeRecord] = []

        #: The memo tier: kind -> content key -> stored value, the same
        #: value the kind's store entry holds (a :class:`CompileResult`,
        #: a :class:`Profile` or a
        #: :class:`~repro.analysis.structure.ProgramAnalysis`).
        self._memo: Dict[str, Dict[Tuple, object]] = {
            kind: {} for kind in KINDS
        }

        self.trace = trace  # via the property: computes the trace key

    # ------------------------------------------------------------------
    # Trace (profile-cache identity)

    @property
    def trace(self) -> List[TracePacket]:
        return self._trace

    @trace.setter
    def trace(self, trace: Sequence[TracePacket]) -> None:
        """Swap the session trace; cached profiles — memo and disk —
        are keyed on the old trace's fingerprint and stop matching
        immediately.  Every replay of the new trace shares its parses
        (:class:`~repro.sim.switch.ReplayTrace`: one given is kept, with
        its fingerprint; any other trace is copied into a new one)."""
        if not isinstance(trace, ReplayTrace):
            trace = ReplayTrace(trace)
        self._trace = trace
        self._trace_key = trace.fingerprint

    @property
    def trace_key(self) -> str:
        """Content fingerprint of the current trace."""
        return self._trace_key

    @contextmanager
    def state_guard(self):
        """Restore the session's (program, config, trace) if the body
        raises.

        The re-key hook for shared-session re-runs: a drift-triggered
        ``reoptimize`` (or an adopted :class:`~repro.core.pipeline.\
        SwitchRun`) swaps the trace before probing, and a run that dies
        mid-phase must not leave the session keyed on the new traffic
        for subsequent callers.  On success the new state stays — that
        *is* the re-key.
        """
        prior = (self.program, self.config, self._trace)
        try:
            yield self
        except BaseException:
            self.program, self.config = prior[0], prior[1]
            self.trace = prior[2]
            raise

    # ------------------------------------------------------------------
    # Content keys

    def program_key(self, program: Program) -> str:
        return program_fingerprint(program)

    def _profile_key(
        self, program: Program, config: RuntimeConfig
    ) -> Tuple[str, Tuple, str]:
        return (
            profile_key(program),
            config_fingerprint(config),
            self._trace_key,
        )

    # ------------------------------------------------------------------
    # One probe path: memo → disk → execute

    def _lookup(self, kind: str, key: Tuple):
        """Answer a probe without executing it: ``(value, None)``; or
        ``(None, lease)`` — the caller executes, and ``lease`` is the
        store's cross-process claim on the probe when it granted one.

        Memo tier first, then the persistent store's one door; an
        answer is logged with the tier that gave it.  A disk hit
        hydrates the memo; it is not an execution.
        """
        memo = self._memo[kind]
        found = memo.get(key)
        if found is not None:
            self.probes.append(ProbeRecord(kind, key, Source.MEMO))
            return found, None
        if self.store is None:
            return None, None
        found, lease = self.store.acquire(kind, key)
        if found is not None:
            self.probes.append(ProbeRecord(kind, key, Source.DISK))
            memo[key] = found
        return found, lease

    def _record(self, kind: str, key: Tuple, value, lease=None):
        """Land one executed probe: memoize, write through to the store
        (releasing ``lease``, so waiters in other processes wake on the
        entry)."""
        self._memo[kind][key] = value
        if lease is not None:
            lease.publish(value)
        elif self.store is not None:
            self.store.publish(kind, key, value)
        return value

    def _probe(self, kind: str, key: Tuple, execute: Callable[[], object]):
        """The one probe path: look it up, else run ``execute()``.  An
        execution is logged when handed off, not when it returns: a
        compile that raises (a program that cannot exist on the target)
        was still an execution."""
        found, lease = self._lookup(kind, key)
        if found is not None:
            return found
        try:
            self.probes.append(ProbeRecord(kind, key, Source.EXECUTED))
            return self._record(kind, key, execute(), lease)
        finally:
            if lease is not None:
                lease.release()  # a no-op once published

    def _analysis(self, program: Program):
        """The analysis an executing compile is built from — itself a
        probe, asked for here and nowhere else: a compile the memo or
        the store answered computes no structure key and asks the store
        nothing.  (The compile's lease is held by now, so
        ``SessionStore.acquire`` never makes this lookup wait on another
        process.)"""
        return self._probe(
            "analysis", (structure_key(program),), lambda: analyse(program)
        )

    # ------------------------------------------------------------------
    # Memoized compile / profile

    def compile(self, program: Optional[Program] = None) -> CompileResult:
        """Compile ``program`` (default: the current program) against the
        session target, memoized on program content (memo tier first,
        then the persistent store, then a real compile)."""
        if program is None:
            program = self.program
        return self._probe(
            "compile",
            (self.program_key(program), self.target.fingerprint()),
            lambda: compile_program(
                program, self.target, self._analysis(program)
            ),
        )

    def profile(
        self,
        program: Optional[Program] = None,
        config: Optional[RuntimeConfig] = None,
    ) -> Profile:
        """Profile ``program`` under ``config`` (defaults: current state)
        on the session trace, memoized on (program, config, trace)
        content."""
        return self.profile_with_perf(program, config)[0]

    def profile_with_perf(
        self,
        program: Optional[Program] = None,
        config: Optional[RuntimeConfig] = None,
    ) -> Tuple[Profile, PerfCounters]:
        """Like :meth:`profile` but also returns what the replay that
        produced the profile cost, read off the profile (the same
        whichever tier answered)."""
        if program is None:
            program = self.program
        if config is None:
            config = self.config
        # The key leaves table sizes out: an entry that shares it may
        # have been replayed at sizes this config does not fit.
        config.check_capacity(program)
        profile = self._probe(
            "profile",
            self._profile_key(program, config),
            lambda: Profiler(program, config).run(self._trace),
        )
        return profile, PerfCounters.of([profile])

    def adopt_profile(self, program: Program, profile: Profile) -> None:
        """Enter ``profile`` as ``program``'s under the current config on
        the session trace, in the memo tier under the key a replay would
        be memoized under — for a caller that has proved the replay
        would record exactly ``profile`` (phase 2's licensed
        relocation).  An adoption is not a probe: it is not logged, not
        written to the store, and an entry already present wins."""
        self._memo["profile"].setdefault(
            self._profile_key(program, self.config), profile
        )

    # ------------------------------------------------------------------
    # Lifecycle

    def close(self) -> None:
        """Drop the trace's parses (memo caches and the probe log
        survive; the trace is re-parsed lazily if the session probes
        again)."""
        self._trace.parses.clear()

    def __enter__(self) -> "OptimizationContext":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Views of the probe log

    @property
    def counters(self) -> SessionCounters:
        """The tally of every probe the session answered."""
        return SessionCounters.of(self.probes)

    def replay_perf(self, since: int = 0) -> Optional[PerfCounters]:
        """What the replays the session executed from probe record
        ``since`` on cost, read off their profiles (None when it
        executed none there): memo and disk hits cost this session
        nothing, and replays before ``since`` (pipeline setup, online
        monitoring) are not counted."""
        profiles = self._memo["profile"]
        executed = [
            profiles[key]
            for kind, key, source in self.probes[since:]
            if kind == "profile"
            and source is Source.EXECUTED
            and key in profiles  # not a replay that raised
        ]
        return PerfCounters.of(executed) if executed else None
