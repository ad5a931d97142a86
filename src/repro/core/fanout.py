"""The one fan-out: many :class:`~repro.core.pipeline.SwitchRun`\\ s
through one task function, against one shared store.

The fleet coordinator (:mod:`repro.core.fleet`) and the design-space
explorer (:mod:`repro.explore.explorer`) are two views over this core:
each hands :func:`run_many` its runs plus a ``task(run, session)`` and
gets the task's return values back in **submission order**.  Everything
the two verbs used to spell separately lives here once:

* worker-count resolution (:func:`resolve_workers`: knob >
  ``$P2GO_WORKERS`` > 1) and store-root resolution
  (:func:`~repro.core.store.resolve_store` semantics; only the root
  and the handle's settings — size cap and code fingerprint —
  cross the process boundary, every task opens its own handle);
* the pool factory (:func:`make_pool`) with its thread fallback — the
  only place under ``repro`` that constructs a process pool;
* one shared store root as the only channel between workers — its
  leases (DESIGN.md §13) are what keeps two of them from executing the
  same fingerprinted probe;
* blocks: consecutive runs with an equal ``key`` go to one worker as
  one task and run back to back, so runs that ask the same compile
  keys do not race each other for their leases;
* always-close of the task's session, so its trace's parses are
  dropped even when the task raises;
* cancel-on-first-error shutdown: a failed task surfaces at once
  instead of after every still-queued run has been executed.
"""

from __future__ import annotations

import os
import time
from functools import partial
from itertools import groupby
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.store import SessionStore, resolve_store

__all__ = [
    "FanOut",
    "WORKERS_ENV",
    "lease_contention",
    "make_pool",
    "probe_provenance",
    "resolve_workers",
    "run_many",
]

#: Environment variable consulted when no ``workers=`` knob is given.
WORKERS_ENV = "P2GO_WORKERS"


def resolve_workers(workers: Optional[int] = None) -> int:
    """The effective worker count: explicit knob > ``P2GO_WORKERS`` > 1."""
    if workers is None:
        raw = os.environ.get(WORKERS_ENV, "").strip()
        if not raw:
            return 1
        try:
            workers = int(raw)
        except ValueError:
            raise ValueError(
                f"{WORKERS_ENV} must be an integer, got {raw!r}"
            ) from None
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return workers


def make_pool(workers: int) -> Executor:
    """A process pool of ``workers``, or a thread pool on platforms
    without multiprocessing primitives (e.g. a sandbox without
    ``sem_open``): threads still run the pure tasks correctly, just
    without bypassing the GIL."""
    try:
        return ProcessPoolExecutor(max_workers=workers)
    except (ImportError, NotImplementedError, OSError):
        return ThreadPoolExecutor(max_workers=workers)


@dataclass
class FanOut:
    """What one :func:`run_many` call produced, in submission order."""

    #: Per run: (the task's return value, the run's wall clock from
    #: store open to session closed).
    results: List[Tuple[object, float]]
    workers: int
    store_root: Optional[str]
    wall_seconds: float


def _run_one(task: Callable, run, open_store: Optional[Callable]):
    """One run end to end (inside a pool worker, or inline when
    serial): open this worker's handle on the shared store, give the
    task a fresh session, close it whatever the task did."""
    t0 = time.perf_counter()
    store = open_store() if open_store is not None else None
    session = run.create_session(store=store)
    try:
        value = task(run, session)
    finally:
        session.close()
    return value, time.perf_counter() - t0


def _run_block(
    task: Callable, block: Sequence, open_store: Optional[Callable]
):
    """One pool task: a block's runs in order, each through
    :func:`_run_one`.  A raising run ends the block there."""
    return [_run_one(task, run, open_store) for run in block]


def run_many(
    runs: Sequence,
    task: Callable,
    workers: Optional[int] = None,
    store=None,
    key: Optional[Callable] = None,
) -> FanOut:
    """Execute ``task(run, session)`` for every run; results merge in
    submission order, so they are independent of the worker count.

    ``workers`` sizes the pool (None → ``$P2GO_WORKERS``, then 1 — the
    serial path, no pool at all).  ``store`` follows
    :func:`~repro.core.store.resolve_store` (instance / path / None →
    ``$P2GO_STORE`` / False → off).  ``task`` must be a module-level
    function (it is pickled by import path) and its return value must
    pickle.

    ``key(run)`` (called here, never pickled) groups the runs: each
    maximal block of consecutive runs with an equal key is one pool
    task, whose runs execute in order in one worker, each still with
    its own store handle, session and clock.  The pool has
    ``min(workers, blocks)`` workers; a single block runs inline.  The
    first run to raise skips the rest of its block, cancels every block
    still queued and re-raises here once the blocks already in flight
    have closed their sessions.
    """
    runs = list(runs)
    workers = resolve_workers(workers)
    resolved = resolve_store(store)
    store_root = open_store = None
    if resolved is not None:
        store_root = str(resolved.root)
        # Every task's handle has the caller's settings, not defaults.
        open_store = partial(
            SessionStore,
            store_root,
            max_bytes=resolved.max_bytes,
            code_fp=resolved.code_fp,
        )
    if key is None:
        blocks = [[run] for run in runs]
    else:
        blocks = [list(block) for _key, block in groupby(runs, key)]
    t0 = time.perf_counter()
    if workers == 1 or len(blocks) <= 1:
        results = _run_block(task, runs, open_store)
    else:
        pool = make_pool(min(workers, len(blocks)))
        try:
            futures = [
                pool.submit(_run_block, task, block, open_store)
                for block in blocks
            ]
            results = [
                each for future in futures for each in future.result()
            ]
        finally:
            # A no-op after a clean merge; on the error path it drops
            # the blocks nobody will read.
            pool.shutdown(wait=True, cancel_futures=True)
    return FanOut(
        results=results,
        workers=workers,
        store_root=store_root,
        wall_seconds=time.perf_counter() - t0,
    )


def lease_contention(stats: Iterable[Optional[dict]]) -> Dict[str, int]:
    """Sum a fan-out's per-run store stats (None entries skipped) into
    lease totals: claims won, contended waits, waits the holder's entry
    answered, and stale leases reaped."""
    lease = dict.fromkeys(
        ("lease_claims", "lease_waits", "lease_wait_hits", "leases_reaped"),
        0,
    )
    for each in stats:
        if each is None:
            continue
        for name in lease:
            lease[name] += each["counters"][name]
    return lease


def probe_provenance(counters: Iterable) -> Dict:
    """Sum a fan-out's :class:`~repro.core.session.SessionCounters`
    (None entries skipped) into who-paid totals: probes asked, probes
    executed, probes the shared store answered, and the reuse rate."""
    calls = executions = disk_hits = 0
    for each in counters:
        if each is None:
            continue
        calls += each.compile_calls + each.profile_calls
        executions += each.compile_executions + each.profile_executions
        disk_hits += each.compile_disk_hits + each.profile_disk_hits
    return {
        "probe_calls": calls,
        "probe_executions": executions,
        "probe_disk_hits": disk_hits,
        "disk_reuse_rate": disk_hits / calls if calls else 0.0,
    }
