"""The optimization session: shared, memoizing compile/profile state.

Every P2GO phase probes candidate programs by compiling them and
re-profiling them on the same trace — the halving binary search of
phase 3 and the per-candidate redirect variants of phase 4 alone account
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
  serialization; ``tests/test_dsl_roundtrip.py`` pins that).  The digest
  is cached per object in a bounded LRU (evicted programs are simply
  re-printed on the next ask), so long runs do not retain every rejected
  candidate AST; programs handed to the session are treated as
  immutable, the contract every phase already honours (rewrites clone).
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
* **Profiles** are keyed by (program key, config key, trace key).  The
  trace key is recomputed whenever ``ctx.trace`` is assigned, so a
  session whose trace is swapped (e.g. after an
  :class:`~repro.core.online.OnlineProfiler` drift alert) never serves
  profiles recorded on the old traffic.  In-place mutation of the trace
  list bypasses the setter — assign a new trace instead.  The setter
  also makes the trace a :class:`~repro.sim.switch.ReplayTrace`, so the
  session's replays parse each packet once per parser, not once per
  replay; swapping the trace or closing the session drops the parses.

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

Parallel candidate probing
--------------------------

Phase 3/4 candidate evaluation is an embarrassingly parallel map —
compile + trace-replay per independent variant — so next to the serial
probes the session has one batch door, :meth:`OptimizationContext.probe_many`:
it compiles candidate programs and replays (program, config) variants in
one mixed wave on the session's one lazily-created pool
(:func:`~repro.core.fanout.make_pool`: processes; threads only on
platforms without multiprocessing primitives).

Persistent store (disk tier)
----------------------------

``store=`` attaches a :class:`~repro.core.store.SessionStore`: a
disk-backed, content-addressed second tier behind the memo cache (the
keys are the same fingerprints, so the two tiers can never disagree).
Every probe — any kind, serial or batched; one ``_lookup`` spells it
— goes **memo → disk → execute**:

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

Concurrency contract (also DESIGN.md §9): worker tasks are *pure* —
they receive pickled/shared immutable inputs and return results; every
log append happens in the caller's thread at submission and every
cache insert after the futures resolve, both in **submission order**,
so a batch logs and memoizes exactly what the serial loop would.
An executing compile's analysis is resolved in the caller, too, before
the task is submitted with it attached: the same analysis records as
the serial path.
Equal-fingerprint candidates within a batch are deduplicated in flight
(one execution, both callers get the cached result and the duplicate is
logged a memo hit — identical to what the serial loop's memo cache
would do).  The worker count comes from the
session's ``workers`` (constructor knob, else the ``P2GO_WORKERS``
environment variable); ``workers=1`` falls back to the serial path
bit-for-bit.  The session supports one batch at a time (it is not
itself a thread-safe object — the batch API *is* the concurrency
mechanism).
"""

from __future__ import annotations

import hashlib
from collections import Counter, OrderedDict
from contextlib import contextmanager
from concurrent.futures import Executor
from dataclasses import asdict, dataclass
from enum import Enum
from typing import (
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.analysis.structure import ProgramAnalysis, analyse, structure_key
from repro.core.fanout import make_pool, resolve_workers
from repro.core.profiler import PerfCounters, Profile, Profiler
from repro.core.store import KINDS, SessionStore
from repro.p4.dsl.printer import print_program
from repro.p4.program import Program
from repro.sim.runtime import RuntimeConfig
from repro.sim.switch import ReplayTrace
from repro.target.compiler import CompileResult, compile_program
from repro.target.model import DEFAULT_TARGET, TargetModel
from repro.traffic.generators import TracePacket

#: Bound on the per-object program-digest cache (satellite of ISSUE 4:
#: an unbounded cache kept every rejected candidate AST alive).
DEFAULT_PROGRAM_KEY_CACHE = 256


def program_fingerprint(program: Program) -> str:
    """Content key of a program: SHA-1 of its printed DSL."""
    return hashlib.sha1(print_program(program).encode()).hexdigest()


def config_fingerprint(config: RuntimeConfig) -> Tuple:
    """Canonical, hashable content key of a runtime config.

    Deliberately excludes the ``mutations`` stamp (two equal-content
    clones must share a cache line) and is recomputed on every use, so
    in-place mutation between calls is observed.
    """
    return (
        tuple(
            sorted(
                (table, tuple(entries))
                for table, entries in config.entries.items()
                if entries
            )
        ),
        tuple(sorted(config.default_overrides.items())),
        tuple(config.register_inits),
        tuple(config.hashed_inits),
        config.enable_compiled_tables,
    )


def trace_fingerprint(trace: Sequence[TracePacket]) -> str:
    """Content key of a trace: SHA-1 over packet bytes + ingress ports."""
    digest = hashlib.sha1()
    for packet in trace:
        if isinstance(packet, tuple):
            data, port = packet
        else:
            data, port = packet, 0
        digest.update(port.to_bytes(4, "big"))
        digest.update(len(data).to_bytes(4, "big"))
        digest.update(data)
    return digest.hexdigest()


# ----------------------------------------------------------------------
# Worker tasks.  Module-level and pure so they pickle for process pools:
# all session state (memo, probe log) is updated by the caller, never
# touched from a worker.


def _analysis_task(program: Program) -> ProgramAnalysis:
    # Validate first: the analyses assume a well-formed program, and a
    # malformed candidate must fail as compile_program fails it.
    program.validate()
    return analyse(program)


def _replay_task(
    program: Program,
    config: RuntimeConfig,
    trace: Sequence[TracePacket],
) -> Profile:
    return Profiler(program, config).run(trace)


class Source(Enum):
    """What answered a probe.  The value names the
    :class:`SessionCounters` field (``<kind>_<value>``) it tallies in."""

    #: The session's in-memory memo (an in-flight batch duplicate too).
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


#: A batch-probe variant: (program, config), either may be None for the
#: session's current state.
ProfileVariant = Tuple[Optional[Program], Optional[RuntimeConfig]]

#: One probe: (a kind of :data:`~repro.core.store.KINDS`, content key,
#: the pure worker task as ``(function, *arguments)``).  The stored
#: value of a compile probe is its :class:`CompileResult`; of a profile
#: probe, its :class:`Profile`; of an analysis probe, its
#: :class:`ProgramAnalysis` — the same value its store entry holds.  A
#: compile probe's task gains the analysis as its last argument when
#: (and only when) the probe executes.
Probe = Tuple[str, Tuple, Tuple]


class OptimizationContext:
    """Current optimization state plus the memoizing compile/profile
    session every phase shares.

    ``workers`` sets the parallelism of the batch probe
    (:meth:`probe_many`);
    None defers to the ``P2GO_WORKERS`` environment variable and, when
    that is unset too, to 1 — the serial path.  The worker pool is
    created lazily on the first parallel batch and released by
    :meth:`close` (the session is also a context manager).

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
        workers: Optional[int] = None,
        store: Optional[SessionStore] = None,
    ):
        self.program = program
        self.config = config
        self.target = target
        #: Disk tier behind the memo cache (None = memory only).
        self.store = store
        self.workers = resolve_workers(workers)
        #: Append-only: one record per probe, in the order asked.
        self.probes: List[ProbeRecord] = []

        #: id(program) -> (strong ref, digest), bounded LRU.  The strong
        #: ref keeps the object alive while cached so ids cannot be
        #: recycled; eviction merely costs a re-print on the next ask.
        self._program_keys: "OrderedDict[int, Tuple[Program, str]]" = (
            OrderedDict()
        )
        #: The memo tier: kind -> content key -> stored value (see
        #: :data:`Probe`).
        self._memo: Dict[str, Dict[Tuple, object]] = {
            kind: {} for kind in KINDS
        }

        #: (size, executor) of the one worker pool both probe kinds
        #: share; created lazily, released by close().
        self._executor: Optional[Tuple[int, Executor]] = None
        self._batch_active = False

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
        (:class:`~repro.sim.switch.ReplayTrace`); the old trace's go
        with it."""
        self._trace = ReplayTrace(trace)
        self._trace_key = trace_fingerprint(self._trace)

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
        cached = self._program_keys.get(id(program))
        if cached is not None and cached[0] is program:
            self._program_keys.move_to_end(id(program))
            return cached[1]
        digest = program_fingerprint(program)
        self._program_keys[id(program)] = (program, digest)
        self._program_keys.move_to_end(id(program))
        while len(self._program_keys) > DEFAULT_PROGRAM_KEY_CACHE:
            self._program_keys.popitem(last=False)
        return digest

    def _compile_probe(self, program: Program) -> Probe:
        key = (self.program_key(program), self.target.fingerprint())
        return "compile", key, (compile_program, program, self.target)

    def _profile_key(
        self, program: Program, config: RuntimeConfig
    ) -> Tuple[str, Tuple, str]:
        return (
            self.program_key(program),
            config_fingerprint(config),
            self._trace_key,
        )

    def _profile_probe(
        self, program: Program, config: RuntimeConfig
    ) -> Probe:
        return (
            "profile",
            self._profile_key(program, config),
            (_replay_task, program, config, self._trace),
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

    def _executable(self, probe: Probe) -> Tuple:
        """Log a probe executed and return its task.  Logged when handed
        to the compiler/replayer, not when it returns: a compile that
        raises (a program that cannot exist on the target) was still an
        execution.  A compile's task gains its program's analysis —
        itself a probe, issued here and nowhere else: a compile the memo
        or the store answered computes no structure key and asks the
        store nothing.  (The compile's lease is held by now, so
        ``SessionStore.acquire`` never makes this lookup wait on another
        process.)"""
        kind, key, task = probe
        self.probes.append(ProbeRecord(kind, key, Source.EXECUTED))
        if kind != "compile":
            return task
        program = task[1]
        key = (structure_key(program),)
        analysis = self._probe(("analysis", key, (_analysis_task, program)))
        return (*task, analysis)

    def _probe(self, probe: Probe):
        """The serial probe: look it up, else execute."""
        kind, key, _task = probe
        found, lease = self._lookup(kind, key)
        if found is not None:
            return found
        try:
            task, *arguments = self._executable(probe)
            return self._record(kind, key, task(*arguments), lease)
        finally:
            if lease is not None:
                lease.release()  # a no-op once published

    # ------------------------------------------------------------------
    # Memoized compile / profile (serial)

    def compile(self, program: Optional[Program] = None) -> CompileResult:
        """Compile ``program`` (default: the current program) against the
        session target, memoized on program content (memo tier first,
        then the persistent store, then a real compile)."""
        if program is None:
            program = self.program
        return self._probe(self._compile_probe(program))

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
        profile = self._probe(self._profile_probe(program, config))
        return profile, PerfCounters.of([profile])

    # ------------------------------------------------------------------
    # Batch (parallel) probing

    def probe_many(
        self,
        programs: Sequence[Program] = (),
        variants: Sequence[ProfileVariant] = (),
    ) -> Tuple[List[CompileResult], List[Profile]]:
        """One mixed wave of compile and replay probes.

        Compiles and replays share the session's one process pool, all
        concurrently.  With one worker — or a single probe — this *is*
        the serial path: the same :meth:`compile` / :meth:`profile`
        calls, in order.

        Raises :class:`RuntimeError` on re-entrant batches.
        """
        programs = list(programs)
        variants = [
            (
                program if program is not None else self.program,
                config if config is not None else self.config,
            )
            for program, config in variants
        ]
        if self._batch_active:
            raise RuntimeError(
                "re-entrant batch probe; the session runs one batch at a "
                "time"
            )
        if self.workers == 1 or len(programs) + len(variants) <= 1:
            return (
                [self.compile(program) for program in programs],
                [
                    self.profile(program, config)
                    for program, config in variants
                ],
            )
        self._batch_active = True
        try:
            results = self._probe_parallel(
                [self._compile_probe(program) for program in programs]
                + [
                    self._profile_probe(program, config)
                    for program, config in variants
                ]
            )
        finally:
            self._batch_active = False
        return results[: len(programs)], results[len(programs) :]

    def _probe_parallel(self, probes: List[Probe]) -> List:
        # Submission wave: one future per probe that needs an
        # execution.  Probes the memo or the disk store answers are
        # skipped, and equal keys are deduplicated in flight (logged as
        # the memo hits their serial twins would be).  Merge wave: in
        # the caller's thread, in submission order; each probe is
        # written through as it lands.
        futures: List[Tuple[str, Tuple, object, object]] = []
        in_flight = set()
        leases = []
        try:
            for probe in probes:
                kind, key, _task = probe
                if (kind, key) in in_flight:
                    self.probes.append(ProbeRecord(kind, key, Source.MEMO))
                    continue
                found, lease = self._lookup(kind, key)
                if found is not None:
                    continue
                in_flight.add((kind, key))
                if lease is not None:
                    leases.append(lease)
                # (A compile's analysis is resolved here, in the caller.)
                task = self._executable(probe)
                futures.append(
                    (kind, key, lease, self._pool().submit(*task))
                )
            for kind, key, lease, future in futures:
                self._record(kind, key, future.result(), lease)
        finally:
            for lease in leases:
                lease.release()  # a no-op once published

        return [self._memo[kind][key] for kind, key, _task in probes]

    # ------------------------------------------------------------------
    # Worker pool

    def _pool(self) -> Executor:
        """The session's lazily-created worker pool, grown (recreated)
        when ``workers`` was raised since the last batch."""
        if self._executor is not None:
            size, pool = self._executor
            if size >= self.workers:
                return pool
            pool.shutdown(wait=True)
        pool = make_pool(self.workers)
        self._executor = (self.workers, pool)
        return pool

    def close(self) -> None:
        """Release the worker pool and the trace's parses (memo caches
        and the probe log survive; the pool is recreated and the trace
        re-parsed lazily if the session probes again)."""
        self._trace.parses.clear()
        executor, self._executor = self._executor, None
        if executor is not None:
            executor[1].shutdown(wait=True)

    def __enter__(self) -> "OptimizationContext":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - interpreter-shutdown ordering
        try:
            self.close()
        except Exception:
            pass

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
