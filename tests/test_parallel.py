"""Worker resolution and key blocks for the one fan-out, and the
session's serial probe path.

``workers`` and ``$P2GO_WORKERS`` size only
:func:`~repro.core.fanout.run_many`'s pool — one block of runs (a
switch, or a shape's design points) per pool task.  A session answers
every probe one way (memo → disk → execute), in the order the phases
ask.
"""

from __future__ import annotations

import copy
import os
import pickle
from collections import Counter

import pytest

from repro.core import fanout
from repro.core import store as store_module
from repro.core.fanout import resolve_workers, run_many
from repro.core.pipeline import P2GO, SwitchRun
from repro.core.session import (
    OptimizationContext,
    config_fingerprint,
    program_fingerprint,
)
from repro.core.store import SessionStore
from repro.programs import example_firewall as fw
from repro.target.model import DEFAULT_TARGET

from .conftest import build_toy_program, toy_config

#: Small trace: plenty for the firewall phases to fire, fast to replay.
TRACE_PACKETS = 1200


def make_trace():
    from repro.packets.craft import udp_packet

    return [
        udp_packet("1.1.1.1", "10.0.0.9", 5, 53) for _ in range(4)
    ] + [
        udp_packet("2.2.2.2", "10.0.0.9", 5, 80) for _ in range(4)
    ]


def make_ctx(**kwargs):
    return OptimizationContext(
        build_toy_program(), toy_config(), make_trace(), DEFAULT_TARGET,
        **kwargs,
    )


def toy_runs():
    """Two runs for a fan-out: the toy program and a resize of it."""
    program = build_toy_program()
    return [
        SwitchRun(program, toy_config(), make_trace(), DEFAULT_TARGET),
        SwitchRun(
            program.with_table_size("fib", 32), toy_config(), make_trace(),
            DEFAULT_TARGET,
        ),
    ]


def probe_task(run, session):
    """A fan-out task (module level, so it pickles): compile, then
    profile, the run's program; return what the session decided and
    counted."""
    compiled = session.compile()
    profile = session.profile()
    return (
        compiled.stages_used,
        compiled.stage_map(),
        dict(profile.apply_counts),
        session.counters.as_dict(),
    )


def canonical(result):
    """Everything a P2GO run decides, as one value compared with ``==``:
    program, config, counters, phase outcomes, decisions.  Nothing in it
    depends on the wall clock, so nothing is masked."""
    perfs = [
        (
            outcome.phase.name,
            outcome.stages,
            outcome.stage_map,
            outcome.profiling_perf,
        )
        for outcome in result.outcomes
    ]
    return (
        program_fingerprint(result.optimized_program),
        config_fingerprint(result.final_config),
        result.session_counters.as_dict(),
        result.offloaded_tables,
        perfs,
        result.decisions,
    )


def optimize_task(run, session):
    """A fan-out task: the run's whole pipeline, as its canonical
    value."""
    return canonical(run.execute(session=session))


def pid_task(run, session):
    """A fan-out task: which run ran where."""
    return run.name, os.getpid()


def store_task(run, session):
    """A fan-out task: compile and profile, then the session's and its
    store handle's counters."""
    session.compile()
    session.profile()
    return session.counters.as_dict(), session.store.counters.as_dict()


def named_runs(count):
    """``count`` copies of the toy run, named ``run0``, ``run1``, ..."""
    runs = [copy.copy(toy_runs()[0]) for _ in range(count)]
    for index, run in enumerate(runs):
        run.name = f"run{index}"
    return runs


def fan_out(**kwargs):
    fan = run_many(toy_runs(), probe_task, store=False, **kwargs)
    return fan.workers, [value for value, _seconds in fan.results]


class TestWorkerResolution:
    def test_defaults_to_serial(self, monkeypatch):
        monkeypatch.delenv("P2GO_WORKERS", raising=False)
        assert resolve_workers() == 1
        # The serial path builds no pool at all.
        monkeypatch.setattr(
            fanout, "make_pool", lambda workers: pytest.fail("pooled")
        )
        workers, results = fan_out()
        assert workers == 1 and len(results) == 2

    def test_env_var(self, monkeypatch):
        serial = fan_out(workers=1)[1]
        monkeypatch.setenv("P2GO_WORKERS", "3")
        assert resolve_workers() == 3
        assert fan_out() == (3, serial)

    def test_knob_beats_env(self, monkeypatch):
        monkeypatch.setenv("P2GO_WORKERS", "3")
        assert resolve_workers(2) == 2
        assert fan_out(workers=2)[0] == 2

    def test_invalid_values_rejected(self, monkeypatch):
        with pytest.raises(ValueError):
            resolve_workers(0)
        with pytest.raises(ValueError, match="workers must be"):
            fan_out(workers=0)
        monkeypatch.setenv("P2GO_WORKERS", "many")
        with pytest.raises(ValueError):
            resolve_workers()
        with pytest.raises(ValueError, match="P2GO_WORKERS"):
            fan_out()


class TestKeyBlocks:
    """``run_many(key=)``: each maximal block of consecutive runs with
    an equal key is one pool task."""

    def test_a_block_runs_in_one_worker_in_submission_order(self):
        keys = ["a", "a", "a", "b", "b", "a", "c"]
        runs = named_runs(len(keys))
        block_of = dict(zip((run.name for run in runs), keys))
        fan = run_many(
            runs, pid_task, workers=2, store=False,
            key=lambda run: block_of[run.name],
        )
        assert fan.workers == 2
        assert [name for (name, _pid), _s in fan.results] == [
            run.name for run in runs
        ]
        pid = {name: pid for (name, pid), _s in fan.results}
        assert pid["run0"] == pid["run1"] == pid["run2"]
        assert pid["run3"] == pid["run4"]
        # Every run keeps its own clock.
        assert all(seconds > 0 for _value, seconds in fan.results)

    def test_one_block_runs_inline(self, monkeypatch):
        monkeypatch.setattr(
            fanout, "make_pool", lambda workers: pytest.fail("pooled")
        )
        fan = run_many(
            named_runs(3), pid_task, workers=2, store=False,
            key=lambda run: "one shape",
        )
        assert [value for value, _s in fan.results] == [
            (f"run{index}", os.getpid()) for index in range(3)
        ]

    def test_each_run_keeps_its_own_session_and_store_handle(
        self, tmp_path
    ):
        """A block's runs share a worker, not a session or a store
        handle: each run's counters are its own."""
        fan = run_many(
            named_runs(3), store_task, workers=2, store=str(tmp_path),
            key=lambda run: "one shape",
        )
        (first, first_store), second, third = [
            value for value, _s in fan.results
        ]
        assert first["compile_executions"] == 1
        assert first_store["writes"] > 0
        session, store = second
        assert session["compile_executions"] == 0
        assert session["compile_disk_hits"] == 1
        assert store["writes"] == 0 and store["compile_hits"] == 1
        assert third == second

    def test_each_block_reads_an_entry_once(self, tmp_path, monkeypatch):
        """A block's handles share what they read and write: two blocks
        asking the same entries read each file once apiece, and every
        run still counts its answers as disk hits."""
        run_many(named_runs(1), store_task, workers=1, store=str(tmp_path))
        reads, read = Counter(), SessionStore._read

        def counting_read(store, path, key):
            reads[path.name] += 1
            return read(store, path, key)

        monkeypatch.setattr(SessionStore, "_read", counting_read)
        keys = ["a", "a", "b", "b"]
        fan = run_many(
            named_runs(4), store_task, workers=1, store=str(tmp_path),
            key=lambda run: keys[int(run.name[len("run"):])],
        )
        # The compile entry and the profile entry, once per block.
        assert sorted(reads.values()) == [2, 2]
        for (session, store), _seconds in fan.results:
            assert session["compile_disk_hits"] == 1
            assert session["profile_disk_hits"] == 1
            assert store["compile_hits"] == store["profile_hits"] == 1
            assert store["misses"] == 0

    def test_a_run_outside_a_block_reads_from_disk(
        self, tmp_path, monkeypatch
    ):
        """A plain run has no block, so each of its disk hits unpickles
        the stored entry."""

        def run():
            return P2GO(
                build_toy_program(), toy_config(), make_trace(),
                DEFAULT_TARGET, store=str(tmp_path),
            ).run()

        run()
        loads, unpickle = [], store_module.pickle.loads

        def counting_loads(data):
            loads.append(len(data))
            return unpickle(data)

        monkeypatch.setattr(store_module.pickle, "loads", counting_loads)
        counters = run().session_counters
        assert counters.compile_executions == counters.profile_executions == 0
        assert len(loads) == (
            counters.compile_disk_hits + counters.profile_disk_hits
        ) > 0


class TestBatchSemantics:
    def test_profile_dedup_and_memo_reuse(self):
        ctx = make_ctx()
        with ctx:
            first = ctx.profile()
            twin = ctx.profile(build_toy_program(), toy_config())
            again = ctx.profile()
        assert twin is first and again is first
        assert ctx.counters.profile_calls == 3
        assert ctx.counters.profile_executions == 1
        assert ctx.counters.profile_hits == 2

    def test_close_releases_pools_and_allows_reuse(self):
        ctx = make_ctx()
        ctx.profile()
        assert ctx.trace.parses
        ctx.close()
        assert not ctx.trace.parses
        # The session still works after close (the trace re-parses
        # lazily).
        ctx.profile(config=ctx.config.restricted_to(["fib"]))
        assert ctx.trace.parses
        ctx.close()

    def test_batch_after_serial_profile(self):
        """Regression: a serial profile memoizes exec-compiled header
        codecs onto the program's header types; the program must still
        pickle into fan-out workers afterwards."""
        ctx = make_ctx()
        ctx.profile()  # populates the per-header-type codec caches
        assert pickle.loads(pickle.dumps(ctx.program)) is not None
        run = SwitchRun(ctx.program, ctx.config, ctx.trace, ctx.target)
        fan = run_many([run, run], probe_task, workers=2, store=False)
        assert fan.results[0][0] == fan.results[1][0]
        assert fan.results[0][0][0] == ctx.compile().stages_used

    def test_thread_fallback_without_process_pools(self, monkeypatch):
        """On a platform without multiprocessing primitives (no
        ``sem_open``) ``make_pool`` falls back to threads; the fan-out
        must complete with the results of the process-pool run."""
        from concurrent.futures import ThreadPoolExecutor

        pools = []
        make_pool = fanout.make_pool

        def recording(workers):
            pool = make_pool(workers)
            pools.append(type(pool))
            return pool

        def no_processes(*_args, **_kwargs):
            raise OSError("sem_open is not implemented")

        monkeypatch.setattr(fanout, "make_pool", recording)
        expected = fan_out(workers=2)
        monkeypatch.setattr(fanout, "ProcessPoolExecutor", no_processes)
        fallback = fan_out(workers=2)
        assert fallback == expected
        assert pools[0] is not ThreadPoolExecutor
        assert pools[1] is ThreadPoolExecutor


class TestPipelineDeterminism:
    """A run's result is canonically identical inline, in a fan-out's
    serial loop and in a pool worker."""

    def check(self, run):
        # store=False: canonical() includes the session counters and
        # per-phase perf, which are a store-less property.
        inline = canonical(
            P2GO(
                run.program, run.config, run.trace, run.target, store=False
            ).run()
        )
        for workers in (1, 2):
            fan = run_many(
                [run, run], optimize_task, workers=workers, store=False
            )
            assert [value for value, _s in fan.results] == [inline] * 2

    def test_firewall_byte_identical(self):
        self.check(
            SwitchRun(
                fw.build_program(), fw.runtime_config(),
                fw.make_trace(TRACE_PACKETS), fw.TARGET,
            )
        )

    def test_toy_byte_identical(self):
        self.check(toy_runs()[0])

    def test_report_renders_worker_count(self):
        from repro.core.fleet import build_fabric, run_fleet
        from repro.core.report import render_fleet_report

        fleet = run_fleet(
            build_fabric(2, families=("example_firewall",), packets=300),
            store=False,
            workers=2,
        )
        assert "2 switches, 2 workers" in render_fleet_report(fleet)


def test_merge_perf_submission_order_is_deterministic():
    """``PerfCounters.of`` sums; the session reads it off the executed
    profiles in probe order, so equal multisets of replays merge to
    equal totals whichever order the phases ask in."""
    from repro.core.profiler import PerfCounters

    def window(order):
        ctx = make_ctx()
        variants = [(None, None), (None, ctx.config.restricted_to(["fib"]))]
        with ctx:
            profiles = [ctx.profile(*variants[i]) for i in order]
        return ctx.replay_perf(0), profiles

    ab, (a, b) = window((0, 1))
    ba, (b2, a2) = window((1, 0))
    assert ab == ba == PerfCounters.of([a, b]) == PerfCounters.of([b, a])
    assert ab.packets == 2 * len(make_trace())
    assert a.same_behavior_as(a2) and b.same_behavior_as(b2)
