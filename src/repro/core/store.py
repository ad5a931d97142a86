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

* **The version is the path.**  Entries live under
  ``<root>/v<SCHEMA_VERSION>/<code>/{compile,profile,analysis}/
  <sha1-of-key>.pkl``; ``<root>`` defaults to ``$P2GO_STORE`` and then
  ``~/.cache/p2go``.  ``<code>`` is the **code fingerprint**, a hash
  over the source of every module the probe tasks import: the classes
  inside an entry pickle and the code that computed them.  Code that
  differs in schema or fingerprint never opens the other's files, so
  it starts cold beside them — never an exception, never a wrong result — and two
  code versions can share one root without resetting each other.
* **Atomic writes.**  Every entry is written to a uniquely-named
  (``O_EXCL``) temp file in the same directory and ``os.replace``\\d
  into place, so readers — including concurrent ones in other
  processes — only ever see complete entries.
* **Corruption tolerance.**  A truncated, garbage, or wrong-key entry
  file is quarantined on load and counted; the caller sees a plain
  miss.
* **Lock-free entries.**  One file per entry plus atomic rename means
  concurrent writers at worst both pay for the same probe and the last
  rename wins — both files hold the identical content-addressed value.
  There is no global lock and no shared mutable index.
* **LRU size cap.**  Loads refresh an entry's mtime; when the store
  exceeds ``max_bytes`` after a write, the least-recently-used entries
  are evicted (oldest mtime first, name as the deterministic
  tie-break).  The census that finds the excess stats every entry, so
  a handle takes it on its first write and then only once the bytes it
  has written since reach half the headroom its last census saw: one
  process never exceeds the cap, N concurrent ones by less than
  ``(N - 1) / 2 * max_bytes`` (DESIGN.md §10).
* **Probe leases.**  A ``<entry>.lease`` file beside the entry,
  locked with ``flock``, marks a probe some process is executing
  (DESIGN.md §13: exactly-once across processes).  The lock, not the
  file, is the claim: the kernel drops it when its holder exits or
  dies, which wakes every waiter at once, and a lease file nobody has
  locked is reaped by the next claimant.  At worst two processes
  re-pay one probe; they never produce different content.  Lease
  telemetry rides on :class:`StoreCounters`; lease files are invisible
  to the census, the LRU sweep, and ``clear()``.

One policy for every session with a store attached (DESIGN.md §10):
:meth:`SessionStore.acquire` → execute → publish.
"""

from __future__ import annotations

import fcntl
import hashlib
import os
import pickle
from dataclasses import asdict, dataclass
from functools import cached_property
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

#: The probe kinds: one entry directory, ``load_<kind>`` /
#: ``store_<kind>`` pair, ``<kind>_hits`` counter and census row each.
KINDS = ("compile", "profile", "analysis")

#: Suffixes of files in the entry directories that are not entries.
_NON_ENTRY_SUFFIXES = (".tmp", ".lease")


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
#: profiles the old code stored.  Their source bytes feed the code
#: fingerprint, which names the entry directory: touching any of them
#: starts a fresh directory instead of serving what the old code
#: computed.
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
    #: Lease files found unlocked (their holder died) and taken over by
    #: this process.
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
    :meth:`release` when the execution raised.  ``fd`` holds the lease
    file's ``flock``; a lease whose holder dies loses it with the
    process and is reaped by the next claimant.
    """

    store: "SessionStore"
    kind: str
    key: Tuple
    path: Path
    released: bool = False
    fd: Optional[int] = None

    def publish(self, value) -> None:
        """Write the executed probe's entry, then release the claim."""
        self.store.publish(self.kind, self.key, value)
        self.release()

    def release(self) -> None:
        if self.released:
            return
        self.released = True
        # Unlink before unlocking: a claimant that wins the lock after
        # the close finds the path gone or re-linked, never this file.
        try:
            os.unlink(self.path)
        except OSError:
            pass
        os.close(self.fd)
        self.store.counters.lease_releases += 1


class SessionStore:
    """Disk tier behind the session's compile/profile memo cache.

    ``root`` is the *unversioned* base directory (default:
    :func:`default_store_root`); entries live under its
    ``v<SCHEMA_VERSION>/<code_fp>/`` subdirectory (:attr:`base`), so
    another schema or other code never reads them.  ``max_bytes`` caps
    the summed size of entry files; the least-recently-used entries are
    evicted past it.  ``code_fp`` overrides the code fingerprint, and
    with it the entry directory (tests use this to simulate a store
    written by different code).

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
    ):
        if max_bytes < 1:
            raise ValueError("max_bytes must be >= 1")
        self.root = Path(root).expanduser() if root else default_store_root()
        self.max_bytes = max_bytes
        self.counters = StoreCounters()
        self._code_fp = code_fp
        self._seq = 0
        self._ready = False
        #: Bytes written since the last census, and how many may be
        #: written before the next (None: census on the next write).
        self._unscanned = 0
        self._scan_after: Optional[float] = None

    # ------------------------------------------------------------------
    # Layout

    @property
    def code_fp(self) -> str:
        if self._code_fp is None:
            self._code_fp = code_fingerprint()
        return self._code_fp

    @cached_property
    def base(self) -> Path:
        """This code's entry directory: ``<root>/v<SCHEMA_VERSION>/
        <code_fp>``."""
        return self.root / f"v{SCHEMA_VERSION}" / self.code_fp

    def _dir(self, kind: str) -> Path:
        return self.base / kind

    def _ensure_ready(self) -> bool:
        """Create the layout (idempotent).

        Returns False when even the directory cannot be created — the
        store is then inert for this process.
        """
        if self._ready:
            return True
        try:
            for kind in (*KINDS, "quarantine"):
                self._dir(kind).mkdir(parents=True, exist_ok=True)
        except OSError:
            self.counters.errors += 1
            return False
        self._ready = True
        return True

    @staticmethod
    def _is_entry_name(name: str) -> bool:
        return not name.endswith(_NON_ENTRY_SUFFIXES)

    # ------------------------------------------------------------------
    # Entry files

    @staticmethod
    def _entry_name(kind: str, key: Tuple) -> str:
        return hashlib.sha1(repr((kind, key)).encode()).hexdigest() + ".pkl"

    def _entry_path(self, kind: str, key: Tuple) -> Path:
        return self._dir(kind) / self._entry_name(kind, key)

    def _temp_path(self, path: Path) -> Path:
        """A temp name beside ``path``, unique per process (pid +
        sequence); opened ``O_EXCL``, so two processes never share one."""
        self._seq += 1
        return path.with_name(f".{path.name}.{os.getpid()}.{self._seq}.tmp")

    def _atomic_write(self, path: Path, data: bytes) -> None:
        """Write-to-temp + rename (:meth:`_temp_path`)."""
        tmp = self._temp_path(path)
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

    def _quarantine(self, path: Path) -> None:
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

    def _take_unlocked(self, path: Path) -> Tuple[Optional[int], bool]:
        """Try the lock of an existing lease file: ``(fd, True)`` when
        nobody held it and the file is still the lease (its holder
        died: the lease is now ours), ``(None, True)`` when a live
        holder has it, ``(None, False)`` when the file went away or
        was replaced meanwhile (claim again)."""
        try:
            fd = os.open(path, os.O_RDONLY | os.O_CLOEXEC)
        except FileNotFoundError:
            return None, False
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            os.close(fd)
            return None, True
        try:
            current = os.stat(path).st_ino == os.fstat(fd).st_ino
        except FileNotFoundError:
            current = False
        if current:
            return fd, True
        os.close(fd)
        return None, False

    def claim_probe(self, kind: str, key: Tuple) -> Optional[ProbeLease]:
        """Try to claim exclusive execution of one probe.

        Returns a held :class:`ProbeLease` when this process won (it
        executes, then publishes the value or just releases), or None
        when another process holds the lease's lock on the same
        fingerprint — :meth:`wait_for_probe` instead of executing.  The
        lease file is created locked (a locked temp file hard-linked
        into place), so an unlocked one means its holder died: it is
        taken over and counted in ``leases_reaped``.  When no lease can
        be made at all (ENOSPC, a read-only or unready root, a file
        system without hard links) there is nothing to hold and nobody
        to wait for: the failure is counted in ``errors`` and the
        returned lease is already released — the caller executes
        unleased.
        """
        path = self._lease_path(kind, key)
        unleased = ProbeLease(self, kind, key, path, released=True)
        if not self._ensure_ready():
            return unleased
        tmp = self._temp_path(path)
        try:
            fd = os.open(
                tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_CLOEXEC,
                0o644,
            )
        except OSError:
            self.counters.errors += 1
            return unleased
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)  # a new file: never blocks
            while True:
                try:
                    os.link(tmp, path)
                    break
                except FileExistsError:
                    pass
                reaped, held = self._take_unlocked(path)
                if reaped is not None:
                    os.close(fd)
                    fd = reaped
                    self.counters.leases_reaped += 1
                    break
                if held:
                    os.close(fd)
                    return None
        except OSError:
            self.counters.errors += 1
            os.close(fd)
            return unleased
        finally:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        self.counters.lease_claims += 1
        return ProbeLease(self, kind, key, path, fd=fd)

    def wait_for_probe(self, kind: str, key: Tuple):
        """Wait for another process's in-flight probe to land.

        Blocks in ``flock`` on the lease file until its holder releases
        it (or dies), then loads the entry.  Returns the entry value (a
        cross-process dedup hit), or None when the holder left no entry
        — it raised or died — and the caller should retry
        :meth:`claim_probe`.
        """
        self.counters.lease_waits += 1
        lease = self._lease_path(kind, key)
        try:
            fd = os.open(lease, os.O_RDONLY | os.O_CLOEXEC)
        except OSError:
            pass  # released already
        else:
            try:
                fcntl.flock(fd, fcntl.LOCK_SH)
            except OSError:
                pass  # no lock to wait on: the load below decides
            finally:
                os.close(fd)
        value = self._loader(kind)(key)
        if value is not None:
            self.counters.lease_wait_hits += 1
        return value

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
          leasing is impossible here, or this handle already holds a
          lease.  A session holds one only while an executing compile
          asks for its analysis under the compile's lease; waiting then
          would chain every process that waits on the compile behind
          the analysis's holder.  Duplicated work beats a chained wait.
        """
        load = self._loader(kind)
        value = load(key)
        if value is not None:
            return value, None
        while True:
            lease = self.claim_probe(kind, key)
            if lease is None:
                if self.counters.leases_held:
                    # An executing compile asking for its analysis:
                    # never wait while holding the compile's lease.
                    return None, None
                value = self.wait_for_probe(kind, key)
                if value is not None:
                    return value, None
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
        """Delete every file under ``v<SCHEMA_VERSION>/``: the entries
        and quarantined files of every code version, and what an older
        layout left there; returns how many entry files were removed."""
        removed = 0
        for path in self.root.glob(f"v{SCHEMA_VERSION}/**/*"):
            try:
                os.unlink(path)
            except OSError:
                continue
            if path.parent.name in KINDS and self._is_entry_name(path.name):
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
        """Census of this code's directory + this process's counters,
        JSON-ready.  A missing directory counts as empty; nothing is
        created."""
        entries = dict.fromkeys(KINDS, 0)
        entry_bytes = dict.fromkeys(KINDS, 0)
        for kind in KINDS:
            for _mtime, _name, size, _path in self._entry_files(kind):
                entries[kind] += 1
                entry_bytes[kind] += size
        try:
            quarantine = sum(1 for _ in self._dir("quarantine").iterdir())
        except OSError:
            quarantine = 0
        return {
            **self.handle_stats(),
            **{f"{kind}_entries": entries[kind] for kind in KINDS},
            **{f"{kind}_bytes": entry_bytes[kind] for kind in KINDS},
            "quarantine_entries": quarantine,
            "total_bytes": sum(entry_bytes.values()),
        }

    def __repr__(self) -> str:  # pragma: no cover — debugging aid
        return f"SessionStore(root={str(self.root)!r})"
