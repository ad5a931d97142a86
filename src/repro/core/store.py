"""Persistent cross-run session store (ROADMAP: "cross-run profile
persistence").

The memoizing session (:mod:`repro.core.session`) dies with the process,
so every ``p2go optimize`` run starts cold — it recompiles and replays
probes that an earlier run over the same program family already paid
for.  :class:`SessionStore` is the disk tier behind that memo cache:
keys are the session's already-content-addressed fingerprints
(``(program_fingerprint, target)`` for compiles,
``(program_fingerprint, config_fingerprint, trace_fingerprint)`` for
profiles, ``(structure_key,)`` for analyses), values are pickled
:class:`~repro.target.compiler.CompileResult` objects,
:class:`~repro.core.profiler.Profile` objects and
:class:`~repro.analysis.structure.ProgramAnalysis` objects — one per
program *structure*, shared by every stored compile of that structure
(a compile entry holds allocation + TDG: no program, which is the
entry's key, and no control graph).
A second run over an unchanged program + trace is served entirely from
disk: zero compiles, zero replays (the stack benchmark's ``opt_warm``
workload fails an operation that executes either).

Durability and safety contract (DESIGN.md §10):

* **Versioned layout.**  Entries live under ``<root>/v<SCHEMA_VERSION>/
  {compile,profile,analysis}/<sha1-of-key>.pkl``; ``<root>`` defaults to
  ``$P2GO_STORE`` and then ``~/.cache/p2go``.  A ``manifest.json``
  carries the schema version and a **code fingerprint** (a hash over
  the source of every module the probe tasks import: the classes
  inside an entry pickle and the code that computed them).  A
  manifest that is missing-but-entries-exist, unreadable, or
  mismatched means the on-disk format can no longer be trusted: the
  existing entries are sidelined into ``quarantine/`` and the store
  starts cold — never an exception, never a wrong result.
* **Atomic writes.**  Every entry is written to a uniquely-named
  (``O_EXCL``) temp file in the same directory and ``os.replace``\\d
  into place, so readers — including concurrent ones in other
  processes — only ever see complete entries.
* **Corruption tolerance.**  A truncated, garbage, or wrong-key entry
  file is quarantined on load and counted; the caller sees a plain
  miss.
* **Multi-process safety without locks.**  One file per entry plus
  atomic rename means concurrent writers at worst both pay for the
  same probe and the last rename wins — both files hold the identical
  content-addressed value.  There is no global lock and no shared
  mutable index.
* **LRU size cap.**  Loads refresh an entry's mtime; when the store
  exceeds ``max_bytes`` after a write, the least-recently-used entries
  are evicted (oldest mtime first, name as the deterministic
  tie-break).  The census that finds the excess stats every entry, so
  a handle takes it on its first write and then only once the bytes it
  has written since reach half the headroom its last census saw: one
  process never exceeds the cap, N concurrent ones by less than
  ``(N - 1) / 2 * max_bytes`` (DESIGN.md §10).
* **Probe leases.**  An ``O_EXCL``-created ``<entry>.lease`` file
  beside the entry marks a probe some process is executing (DESIGN.md
  §13: exactly-once across processes).  It records the holder's host
  and pid: a lease is *stale* — reaped by the next claimant — once it
  is older than ``lease_ttl`` or its holder, on this host, no longer
  exists, and no wait outlives the TTL.  At worst two processes re-pay
  one probe; they never produce different content.  Lease telemetry
  rides on :class:`StoreCounters`; lease files are invisible to the
  census, the LRU sweep, and ``clear()``.

One policy for every session with a store attached (DESIGN.md §10):
:meth:`SessionStore.acquire` → execute → publish.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import socket
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union

if TYPE_CHECKING:  # pragma: no cover — typing-only imports, no cycle
    from repro.analysis.structure import ProgramAnalysis
    from repro.core.profiler import Profile
    from repro.target.compiler import CompileResult

__all__ = [
    "KINDS",
    "SCHEMA_VERSION",
    "ProbeLease",
    "SessionStore",
    "StoreCounters",
    "code_fingerprint",
    "default_store_root",
    "human_bytes",
    "resolve_store",
]

#: Bump when the entry layout or payload framing changes; old schema
#: directories (``v<N>/``) are simply never read by a newer store.
SCHEMA_VERSION = 1

#: Environment variable naming the store root (consulted by
#: :func:`default_store_root` / :func:`resolve_store`).
STORE_ENV = "P2GO_STORE"

#: Default size cap before LRU eviction kicks in.
DEFAULT_MAX_BYTES = 512 * 1024 * 1024

#: Default age after which another process's lease is considered dead
#: and may be reaped.  Must comfortably exceed one probe's execution
#: time (a compile or a trace replay — seconds), so an expiry almost
#: always means the holder crashed, not that it is slow.
DEFAULT_LEASE_TTL = 120.0

#: The probe kinds: one entry directory, ``load_<kind>`` /
#: ``store_<kind>`` pair, ``<kind>_hits`` counter and census row each.
KINDS = ("compile", "profile", "analysis")

#: Suffixes of files in the entry directories that are not entries.
_NON_ENTRY_SUFFIXES = (".tmp", ".lease")

#: A manifest that can never equal the expected one: a garbage file, or
#: entries found with no manifest at all.
_UNTRUSTED = {"schema": None, "code": None}


def human_bytes(count: int) -> str:
    """``1234567`` → ``"1.2 MiB"`` (exact bytes below 1 KiB)."""
    size = float(count)
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if size < 1024 or unit == "TiB":
            if unit == "B":
                return f"{int(size)} B"
            return f"{size:.1f} {unit}"
        size /= 1024
    raise AssertionError("unreachable")  # pragma: no cover

#: Every module the three probe tasks — ``compile_program``,
#: ``Profiler.run`` and ``analyse`` — import, directly or through one
#: another (their static import closure).  That covers both the classes
#: pickled into entries and the code that computes their content: a
#: simulator fix changes what a replay produces, so it must retire the
#: profiles the old code stored.  Their source bytes feed the manifest's
#: code fingerprint: touching any of them invalidates (quarantines)
#: existing stores instead of serving what the old code computed.
_FINGERPRINTED_MODULES = (
    "repro.exceptions",
    "repro.core.profiler",
    "repro.sim.action_interp",
    "repro.sim.events",
    "repro.sim.hashing",
    "repro.sim.match",
    "repro.sim.parser_engine",
    "repro.sim.plan",
    "repro.sim.runtime",
    "repro.sim.state",
    "repro.sim.switch",
    "repro.target.compiler",
    "repro.target.allocation",
    "repro.target.model",
    "repro.target.resources",
    "repro.analysis.dependencies",
    "repro.analysis.control_graph",
    "repro.analysis.graph",
    "repro.analysis.structure",
    "repro.p4",
    "repro.p4.program",
    "repro.p4.builder",
    "repro.p4.tables",
    "repro.p4.actions",
    "repro.p4.control",
    "repro.p4.expressions",
    "repro.p4.registers",
    "repro.p4.parser_spec",
    "repro.p4.types",
    "repro.packets",
    "repro.packets.craft",
    "repro.packets.headers",
    "repro.packets.packet",
    "repro.packets.pcap",
    "repro.traffic.generators",
)

_code_fingerprint_cache: Optional[str] = None


def code_fingerprint() -> str:
    """SHA-1 over the source of every module a probe task runs or
    pickles (computed once per process)."""
    global _code_fingerprint_cache
    if _code_fingerprint_cache is None:
        import importlib

        digest = hashlib.sha1()
        for name in _FINGERPRINTED_MODULES:
            module = importlib.import_module(name)
            digest.update(Path(module.__file__).read_bytes())
        _code_fingerprint_cache = digest.hexdigest()
    return _code_fingerprint_cache


def default_store_root() -> Path:
    """``$P2GO_STORE`` when set and non-empty, else ``~/.cache/p2go``."""
    raw = os.environ.get(STORE_ENV, "").strip()
    if raw:
        return Path(raw).expanduser()
    return Path.home() / ".cache" / "p2go"


def resolve_store(
    store: Union["SessionStore", str, Path, bool, None],
) -> Optional["SessionStore"]:
    """The store a pipeline run should use.

    * a :class:`SessionStore` — used as-is;
    * a path — a store rooted there;
    * ``False`` — no store, even when ``$P2GO_STORE`` is set;
    * ``None`` — a store rooted at ``$P2GO_STORE`` when that is set and
      non-empty, otherwise no store (the library never writes to the
      user cache dir unless explicitly asked).
    """
    if store is False or store is None and not os.environ.get(
        STORE_ENV, ""
    ).strip():
        return None
    if isinstance(store, SessionStore):
        return store
    if store is None or store is True:
        return SessionStore(default_store_root())
    return SessionStore(store)


@dataclass
class StoreCounters:
    """What this process asked of the store and what happened on disk."""

    #: Loads answered from disk, per kind.
    compile_hits: int = 0
    profile_hits: int = 0
    analysis_hits: int = 0
    #: Loads that found no (usable) entry.
    misses: int = 0
    #: Entries written (after executions).
    writes: int = 0
    #: Entries evicted by the LRU size cap.
    evictions: int = 0
    #: Corrupt/foreign entry files sidelined into ``quarantine/``.
    quarantined: int = 0
    #: Whole-store invalidations (schema or code-fingerprint mismatch,
    #: unreadable manifest) — each one is a forced cold start.
    resets: int = 0
    #: I/O or pickling failures that were swallowed (the store degrades
    #: to a miss / dropped write, never an exception).
    errors: int = 0
    #: Probe leases this process won (it executed those probes).
    lease_claims: int = 0
    #: Leases released after the entry was written.
    lease_releases: int = 0
    #: Times this process lost a claim and waited on another process's
    #: in-flight probe (cross-process contention).
    lease_waits: int = 0
    #: Waits that ended with the other process's entry served (the
    #: cross-process analogue of an in-flight dedup hit).
    lease_wait_hits: int = 0
    #: Stale leases (holder dead past the TTL) broken by this process.
    leases_reaped: int = 0

    @property
    def hits(self) -> int:
        return sum(getattr(self, f"{kind}_hits") for kind in KINDS)

    @property
    def leases_held(self) -> int:
        """Leases this handle has won and not yet released."""
        return self.lease_claims - self.lease_releases

    def as_dict(self) -> Dict[str, int]:
        return asdict(self)


@dataclass
class ProbeLease:
    """An exclusive cross-process claim on one in-flight probe.

    Won via :meth:`SessionStore.acquire`; the holder executes the
    probe, then calls :meth:`publish` (write + release) so waiters in
    other processes see the entry instead of re-executing — or just
    :meth:`release` when the execution raised.  A lease whose holder
    dies is reaped by the next claimant.
    """

    store: "SessionStore"
    kind: str
    key: Tuple
    path: Path
    released: bool = False

    def publish(self, value) -> None:
        """Write the executed probe's entry, then release the claim."""
        self.store.publish(self.kind, self.key, value)
        self.release()

    def release(self) -> None:
        if self.released:
            return
        self.released = True
        try:
            os.unlink(self.path)
        except OSError:
            pass
        self.store.counters.lease_releases += 1


class SessionStore:
    """Disk tier behind the session's compile/profile memo cache.

    ``root`` is the *unversioned* base directory (default:
    :func:`default_store_root`); entries live under its
    ``v<SCHEMA_VERSION>/`` subdirectory so schema bumps never read old
    layouts.  ``max_bytes`` caps the summed size of entry files; the
    least-recently-used entries are evicted past it.
    ``code_fp`` overrides the manifest code fingerprint (tests use this
    to simulate a store written by different code).  ``lease_ttl`` is
    the age past which another process's probe lease counts as dead
    (and the longest a :meth:`wait_for_probe` can block).

    Every public method is exception-safe: I/O and pickling failures
    degrade to a miss (loads) or a dropped write (stores) and are
    counted on :attr:`counters`, so a broken disk can cost performance
    but never a crash or a wrong result.
    """

    def __init__(
        self,
        root: Union[str, Path, None] = None,
        max_bytes: int = DEFAULT_MAX_BYTES,
        code_fp: Optional[str] = None,
        lease_ttl: float = DEFAULT_LEASE_TTL,
    ):
        if max_bytes < 1:
            raise ValueError("max_bytes must be >= 1")
        if lease_ttl <= 0:
            raise ValueError("lease_ttl must be > 0")
        self.root = Path(root).expanduser() if root else default_store_root()
        self.base = self.root / f"v{SCHEMA_VERSION}"
        self.max_bytes = max_bytes
        self.lease_ttl = lease_ttl
        self.counters = StoreCounters()
        self._code_fp = code_fp
        self._seq = 0
        self._ready = False
        #: Bytes written since the last census, and how many may be
        #: written before the next (None: census on the next write).
        self._unscanned = 0
        self._scan_after: Optional[float] = None

    # ------------------------------------------------------------------
    # Layout / manifest

    @property
    def code_fp(self) -> str:
        if self._code_fp is None:
            self._code_fp = code_fingerprint()
        return self._code_fp

    def _dir(self, kind: str) -> Path:
        return self.base / kind

    def _manifest_path(self) -> Path:
        return self.base / "manifest.json"

    def _ensure_ready(self) -> bool:
        """Create the layout and reconcile the manifest (idempotent).

        Returns False when even the directory cannot be created — the
        store is then inert for this process.
        """
        if self._ready:
            return True
        try:
            for kind in (*KINDS, "quarantine"):
                self._dir(kind).mkdir(parents=True, exist_ok=True)
            expected = {"schema": SCHEMA_VERSION, "code": self.code_fp}
            manifest = self._read_manifest()
            if manifest is None and self._has_entries():
                # Entries but no manifest.  A writer writes its manifest
                # before its first entry, so either a peer started on
                # this fresh root since the read (its manifest is there
                # now) or the manifest was lost while entries survived,
                # which is untrustworthy.
                manifest = self._read_manifest() or _UNTRUSTED
            if manifest is None:
                self._write_manifest(expected)
            elif manifest != expected:
                self._invalidate()
                self._write_manifest(expected)
            self._ready = True
            return True
        except OSError:
            self.counters.errors += 1
            return False

    def _read_manifest(self) -> Optional[Dict]:
        path = self._manifest_path()
        try:
            raw = path.read_text()
        except OSError:
            return None
        try:
            manifest = json.loads(raw)
            return {
                "schema": manifest["schema"],
                "code": manifest["code"],
            }
        except (ValueError, KeyError, TypeError):
            # Unreadable/garbage manifest: report it as a mismatch (the
            # caller quarantines and rewrites).
            return _UNTRUSTED

    def _write_manifest(self, manifest: Dict) -> None:
        self._atomic_write(
            self._manifest_path(),
            (json.dumps(manifest, sort_keys=True) + "\n").encode(),
        )

    @staticmethod
    def _is_entry_name(name: str) -> bool:
        return not name.endswith(_NON_ENTRY_SUFFIXES)

    def _has_entries(self) -> bool:
        return any(self._entry_files(kind) for kind in KINDS)

    def _invalidate(self) -> None:
        """Sideline every existing entry: the on-disk format does not
        match this code.  Cold start, never an exception."""
        self.counters.resets += 1
        for kind in KINDS:
            directory = self._dir(kind)
            try:
                names = sorted(p.name for p in directory.iterdir())
            except OSError:
                continue
            for name in names:
                if not self._is_entry_name(name):
                    # Stale temp/lease files from the old format are
                    # not worth preserving — just drop them.
                    try:
                        os.unlink(directory / name)
                    except OSError:
                        pass
                    continue
                self._quarantine(directory / name, count=False)

    # ------------------------------------------------------------------
    # Entry files

    @staticmethod
    def _entry_name(kind: str, key: Tuple) -> str:
        return hashlib.sha1(repr((kind, key)).encode()).hexdigest() + ".pkl"

    def _entry_path(self, kind: str, key: Tuple) -> Path:
        return self._dir(kind) / self._entry_name(kind, key)

    def _atomic_write(self, path: Path, data: bytes) -> None:
        """Write-to-temp + rename; the temp name is unique per process
        (pid + sequence) and opened ``O_EXCL`` so two processes never
        share a temp file."""
        self._seq += 1
        tmp = path.with_name(f".{path.name}.{os.getpid()}.{self._seq}.tmp")
        fd = os.open(
            tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_TRUNC, 0o644
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        os.replace(tmp, path)

    def _quarantine(self, path: Path, count: bool = True) -> None:
        """Move a suspect file out of the entry namespace (best effort:
        a racing process may already have moved or replaced it)."""
        target = self._dir("quarantine") / (
            f"{path.name}.{os.getpid()}.{self._seq}"
        )
        self._seq += 1
        try:
            os.replace(path, target)
        except OSError:
            try:
                os.unlink(path)
            except OSError:
                pass
        if count:
            self.counters.quarantined += 1

    def _load(self, kind: str, key: Tuple):
        if not self._ensure_ready():
            return None
        path = self._entry_path(kind, key)
        try:
            data = path.read_bytes()
        except OSError:
            self.counters.misses += 1
            return None
        try:
            payload = pickle.loads(data)
            stored_key = payload["key"]
            value = payload["value"]
        except Exception:
            # Truncated write, garbage bytes, a pickle of foreign code —
            # all degrade to a miss; the file is sidelined so the cost
            # is paid once.
            self._quarantine(path)
            self.counters.misses += 1
            return None
        if stored_key != key:
            # SHA-1 collision or a corrupted-but-unpicklable-detectably
            # entry: treat exactly like corruption.
            self._quarantine(path)
            self.counters.misses += 1
            return None
        try:
            os.utime(path)  # refresh LRU recency
        except OSError:
            pass
        hits = f"{kind}_hits"
        setattr(self.counters, hits, getattr(self.counters, hits) + 1)
        return value

    def _store(self, kind: str, key: Tuple, value) -> None:
        if not self._ensure_ready():
            return
        try:
            data = pickle.dumps(
                {"key": key, "value": value},
                protocol=pickle.HIGHEST_PROTOCOL,
            )
            self._atomic_write(self._entry_path(kind, key), data)
        except Exception:
            self.counters.errors += 1
            return
        self.counters.writes += 1
        self._unscanned += len(data)
        if self._scan_after is None or self._unscanned >= self._scan_after:
            self._evict_over_cap()

    # ------------------------------------------------------------------
    # Probe leases (cross-process in-flight dedup)

    def _lease_path(self, kind: str, key: Tuple) -> Path:
        return self._dir(kind) / (self._entry_name(kind, key) + ".lease")

    def _loader(self, kind: str):
        return getattr(self, f"load_{kind}")

    def _lease_stale(self, path: Path) -> Optional[bool]:
        """Whether the lease's holder is presumed dead (None: the lease
        is gone).  Dead means older than ``lease_ttl``, or written on
        this host by a pid that no longer exists; a lease whose record
        is missing, unreadable or from another host has only the TTL.
        """
        try:
            if time.time() - path.stat().st_mtime > self.lease_ttl:
                return True
            holder = json.loads(path.read_text())
            if holder["host"] != socket.gethostname():
                return False
            os.kill(holder["pid"], 0)
        except FileNotFoundError:
            return None
        except ProcessLookupError:
            return True
        except (OSError, ValueError, KeyError, TypeError, OverflowError):
            return False  # no usable record: only the TTL applies
        return False  # the holder is alive

    def claim_probe(self, kind: str, key: Tuple) -> Optional[ProbeLease]:
        """Try to claim exclusive execution of one probe.

        Returns a held :class:`ProbeLease` when this process won (it
        executes, then publishes the value or just releases), or None
        when another process holds a live lease on the same fingerprint
        — :meth:`wait_for_probe` instead of executing.  A stale lease
        (:meth:`_lease_stale`) is reaped and re-claimed.  When no lease
        file can be created at all (ENOSPC, a read-only or unready
        root) there is nothing to hold and nobody to wait for: the
        failure is counted in ``errors`` and the returned lease is
        already released — the caller executes unleased.
        """
        path = self._lease_path(kind, key)
        unleased = ProbeLease(self, kind, key, path, released=True)
        if not self._ensure_ready():
            return unleased
        for _attempt in (0, 1):
            try:
                fd = os.open(
                    path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644
                )
            except FileExistsError:
                stale = self._lease_stale(path)
                if stale is False:
                    return None
                if stale:
                    # Holder dead: break the lease and retry the
                    # O_EXCL create (one racer wins it).
                    try:
                        os.unlink(path)
                        self.counters.leases_reaped += 1
                    except OSError:
                        pass
                continue
            except OSError:
                self.counters.errors += 1
                return unleased
            try:
                with os.fdopen(fd, "w") as handle:
                    handle.write(
                        json.dumps(
                            {"host": socket.gethostname(), "pid": os.getpid()}
                        )
                    )
            except OSError:
                self.counters.errors += 1
            self.counters.lease_claims += 1
            return ProbeLease(self, kind, key, path)
        return None

    def wait_for_probe(
        self,
        kind: str,
        key: Tuple,
        deadline: Optional[float] = None,
        poll: float = 0.02,
    ):
        """Wait for another process's in-flight probe to land.

        Polls while the lease stays live.  Returns the loaded entry
        value (a cross-process dedup hit), or None when the lease
        vanished or went stale without producing an entry — the caller
        should retry :meth:`claim_probe` — or when ``deadline``
        (``time.monotonic()`` based; defaults to ``lease_ttl`` from
        now) passes, in which case the caller should just execute:
        duplicated work is always preferable to a wedged run.
        """
        if deadline is None:
            deadline = time.monotonic() + self.lease_ttl
        load = self._loader(kind)
        entry = self._entry_path(kind, key)
        lease = self._lease_path(kind, key)
        self.counters.lease_waits += 1
        while True:
            if entry.exists():
                value = load(key)
                if value is not None:
                    self.counters.lease_wait_hits += 1
                    return value
                # The entry was corrupt (now quarantined) — fall
                # through to the lease check.
            stale = self._lease_stale(lease)
            if stale is None:
                # Lease released: one final look for the entry.
                if entry.exists():
                    value = load(key)
                    if value is not None:
                        self.counters.lease_wait_hits += 1
                        return value
                return None
            if stale or time.monotonic() >= deadline:
                return None
            time.sleep(poll)

    def acquire(
        self, kind: str, key: Tuple
    ) -> Tuple[Optional[object], Optional[ProbeLease]]:
        """The one door to a stored probe: load it, or settle across
        processes who executes it.

        * ``(value, None)`` — a disk hit, or another process's entry
          that landed while we waited on its lease;
        * ``(None, lease)`` — this process holds the probe's lease and
          must execute, then ``lease.publish(value)`` (or ``release()``
          if the execution raised);
        * ``(None, None)`` — execute unleased and :meth:`publish`:
          leasing is impossible here, ``lease_ttl`` passed while
          waiting, or this handle already holds a lease.  A session
          holds one only while an executing compile asks for its
          analysis under the compile's lease; waiting then would chain
          every process that waits on the compile behind the analysis's
          holder (and behind its TTL, were it dead).  Duplicated work
          beats a chained wait.
        """
        load = self._loader(kind)
        value = load(key)
        if value is not None:
            return value, None
        deadline = time.monotonic() + self.lease_ttl
        while True:
            lease = self.claim_probe(kind, key)
            if lease is None:
                if self.counters.leases_held:
                    # An executing compile asking for its analysis:
                    # never wait while holding the compile's lease.
                    return None, None
                value = self.wait_for_probe(kind, key, deadline=deadline)
                if value is not None:
                    return value, None
                if time.monotonic() >= deadline:
                    return None, None
                continue
            if lease.released:
                return None, None
            # Re-check under the lease: the entry may have landed
            # between our miss and this claim (its writer released just
            # before we won).  Executing here would break exactly-once,
            # and a claim that executes nothing is not counted as won.
            value = load(key)
            if value is not None:
                lease.release()
                self.counters.lease_claims -= 1
                self.counters.lease_releases -= 1
                return value, None
            return None, lease

    # ------------------------------------------------------------------
    # Public API

    # One ``load_<kind>`` / ``store_<kind>`` pair per kind of KINDS;
    # ``acquire`` and ``publish`` go through them by name.

    def load_compile(self, key: Tuple) -> Optional["CompileResult"]:
        """The stored compile result for ``key``, or None (miss)."""
        return self._load("compile", key)

    def store_compile(self, key: Tuple, result: "CompileResult") -> None:
        self._store("compile", key, result)

    def load_profile(self, key: Tuple) -> Optional["Profile"]:
        """The stored profile for ``key``, or None."""
        return self._load("profile", key)

    def store_profile(self, key: Tuple, profile: "Profile") -> None:
        self._store("profile", key, profile)

    def load_analysis(self, key: Tuple) -> Optional["ProgramAnalysis"]:
        """The stored analysis of the structure ``key``, or None."""
        return self._load("analysis", key)

    def store_analysis(self, key: Tuple, analysis: "ProgramAnalysis") -> None:
        self._store("analysis", key, analysis)

    def publish(self, kind: str, key: Tuple, value) -> None:
        """Write one executed probe's stored value (a compile's result,
        a profile, an analysis)."""
        getattr(self, f"store_{kind}")(key, value)

    # ------------------------------------------------------------------
    # Eviction / maintenance

    def _entry_files(self, kind: str) -> List[Tuple[float, str, int, str]]:
        """(mtime, name, size, path) for every entry file of ``kind``,
        in directory order."""
        records = []
        try:
            with os.scandir(self._dir(kind)) as scan:
                for item in scan:
                    if not self._is_entry_name(item.name):
                        continue
                    try:
                        stat = item.stat()
                    except OSError:
                        continue
                    records.append(
                        (stat.st_mtime, item.name, stat.st_size, item.path)
                    )
        except OSError:
            pass
        return records

    def _evict_over_cap(self) -> int:
        """Take the census and drop least-recently-used entries until
        under ``max_bytes``.  The next census is due once this handle
        has written half the headroom left."""
        records = [
            record for kind in KINDS for record in self._entry_files(kind)
        ]
        total = sum(size for _mtime, _name, size, _path in records)
        evicted = 0
        if total > self.max_bytes:
            # Oldest first, by (mtime, name): every process evicts in
            # the same order (name is the tie-break for equal mtimes).
            records.sort(key=lambda record: (record[0], record[1]))
            for _mtime, _name, size, path in records:
                if total <= self.max_bytes:
                    break
                try:
                    os.unlink(path)
                except OSError:
                    continue
                total -= size
                evicted += 1
            self.counters.evictions += evicted
        self._unscanned = 0
        self._scan_after = (self.max_bytes - total) / 2
        return evicted

    def clear(self) -> int:
        """Delete every entry (and quarantined file); returns how many
        entry files were removed.  The manifest survives."""
        if not self._ensure_ready():
            return 0
        removed = 0
        for kind in (*KINDS, "quarantine"):
            directory = self._dir(kind)
            try:
                paths = list(directory.iterdir())
            except OSError:
                continue
            for path in paths:
                try:
                    os.unlink(path)
                except OSError:
                    continue
                if kind != "quarantine" and self._is_entry_name(path.name):
                    removed += 1
        return removed

    def handle_stats(self) -> Dict:
        """This handle's settings and counters, JSON-ready: what
        :meth:`stats` reports without the census, so no directory is
        scanned."""
        return {
            "root": str(self.root),
            "schema": SCHEMA_VERSION,
            "code": self.code_fp,
            "max_bytes": self.max_bytes,
            "counters": self.counters.as_dict(),
        }

    def stats(self) -> Dict:
        """Census + this process's counters, JSON-ready."""
        entries = dict.fromkeys(KINDS, 0)
        entry_bytes = dict.fromkeys(KINDS, 0)
        quarantine = 0
        if self._ensure_ready():
            for kind in KINDS:
                for _mtime, _name, size, _path in self._entry_files(kind):
                    entries[kind] += 1
                    entry_bytes[kind] += size
            try:
                quarantine = sum(
                    1 for _ in self._dir("quarantine").iterdir()
                )
            except OSError:
                pass
        return {
            **self.handle_stats(),
            **{f"{kind}_entries": entries[kind] for kind in KINDS},
            **{f"{kind}_bytes": entry_bytes[kind] for kind in KINDS},
            "quarantine_entries": quarantine,
            "total_bytes": sum(entry_bytes.values()),
        }

    def __repr__(self) -> str:  # pragma: no cover — debugging aid
        return f"SessionStore(root={str(self.root)!r})"
