"""Parallel candidate probing: batch API semantics and determinism.

The concurrency contract (DESIGN.md §9): batch probes must land in the
shared memo cache *exactly* as if probed serially — same results, same
probe log (so the same ``SessionCounters`` and per-phase replay perf,
merged in submission order) and in-flight dedup of equal-fingerprint
candidates.  On top of
that, a full P2GO run must be canonically identical for ``workers=1``
and ``workers=4``.
"""

from __future__ import annotations

import pytest

from repro.core.pipeline import P2GO
from repro.core.session import (
    OptimizationContext,
    SessionCounters,
    Source,
    config_fingerprint,
    merge_perf,
    program_fingerprint,
    resolve_workers,
)
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


def toy_variants(program):
    """Distinct probe programs: the toy program plus two resizes."""
    return [
        program,
        program.with_table_size("fib", 32),
        program.with_table_size("acl", 8),
    ]


def canonical(result):
    """Everything a P2GO run decides, as one value compared with ``==``:
    program, config, counters, phase outcomes, decisions.  Nothing in it
    depends on the wall clock, so nothing is masked."""
    perfs = [
        (
            outcome.phase.name,
            outcome.stages,
            outcome.stage_map,
            None
            if outcome.profiling_perf is None
            else (
                outcome.profiling_perf.packets,
                sorted(outcome.profiling_perf.table_lookups.items()),
            ),
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


class TestWorkerResolution:
    def test_defaults_to_serial(self, monkeypatch):
        monkeypatch.delenv("P2GO_WORKERS", raising=False)
        assert resolve_workers() == 1
        assert make_ctx().workers == 1

    def test_env_var(self, monkeypatch):
        monkeypatch.setenv("P2GO_WORKERS", "3")
        assert resolve_workers() == 3
        assert make_ctx().workers == 3

    def test_knob_beats_env(self, monkeypatch):
        monkeypatch.setenv("P2GO_WORKERS", "3")
        assert resolve_workers(2) == 2
        assert make_ctx(workers=2).workers == 2

    def test_invalid_values_rejected(self, monkeypatch):
        with pytest.raises(ValueError):
            resolve_workers(0)
        monkeypatch.setenv("P2GO_WORKERS", "many")
        with pytest.raises(ValueError):
            resolve_workers()


class TestBatchSemantics:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_compile_many_matches_serial(self, workers):
        serial = make_ctx(workers=1)
        batch = make_ctx(workers=workers)
        programs = toy_variants(serial.program)
        expected = [serial.compile(p) for p in programs]
        with batch:
            got, _ = batch.probe_many(programs=toy_variants(batch.program))
        assert [r.stages_used for r in got] == [
            r.stages_used for r in expected
        ]
        assert [r.stage_map() for r in got] == [
            r.stage_map() for r in expected
        ]
        assert batch.counters.as_dict() == serial.counters.as_dict()

    @pytest.mark.parametrize("workers", [1, 4])
    def test_profile_many_matches_serial(self, workers):
        serial = make_ctx(workers=1)
        batch = make_ctx(workers=workers)
        restricted = serial.config.restricted_to(["fib"])
        expected = [
            serial.profile(),
            serial.profile(config=restricted),
        ]
        serial_perf = serial.replay_perf(0)
        with batch:
            _, got = batch.probe_many(
                variants=[
                    (None, None), (None, batch.config.restricted_to(["fib"]))
                ]
            )
        batch_perf = batch.replay_perf(0)
        for (ours, _perf), theirs in zip(got, expected):
            assert ours.same_behavior_as(theirs)
        assert batch.counters.as_dict() == serial.counters.as_dict()
        assert batch_perf.packets == serial_perf.packets
        assert batch_perf.table_lookups == serial_perf.table_lookups

    def test_in_flight_dedup_one_execution(self):
        ctx = make_ctx(workers=4)
        with ctx:
            (a, b), _ = ctx.probe_many(
                programs=[build_toy_program(), build_toy_program()]
            )
        assert a is b
        assert ctx.counters.compile_calls == 2
        assert ctx.counters.compile_executions == 1
        assert ctx.counters.compile_hits == 1

    def test_profile_dedup_and_memo_reuse(self):
        ctx = make_ctx(workers=4)
        with ctx:
            _, first = ctx.probe_many(variants=[(None, None), (None, None)])
            assert ctx.counters.profile_executions == 1
            # A later batch is answered from the memo cache entirely.
            _, again = ctx.probe_many(variants=[(None, None)])
        assert first[0][0] is first[1][0]
        assert again[0][0] is first[0][0]
        assert ctx.counters.profile_calls == 3
        assert ctx.counters.profile_executions == 1

    def test_mixed_batch_logs_what_the_serial_loop_logs(self):
        """The probe log of a mixed batch — in-flight duplicates, memo
        hits and executions — is identical for 1 and 4 workers."""

        def probe(workers):
            ctx = make_ctx(workers=workers)
            with ctx:
                ctx.compile(ctx.program)  # a later memo hit
                ctx.probe_many(
                    programs=[
                        *toy_variants(ctx.program),
                        build_toy_program().with_table_size("fib", 32),
                    ],
                    variants=[
                        (None, None),
                        (None, ctx.config.restricted_to(["fib"])),
                        (None, None),
                    ],
                )
            return ctx.probes

        serial, parallel = probe(1), probe(4)
        assert parallel == serial
        assert {source for _kind, _key, source in serial} == {
            Source.MEMO, Source.EXECUTED,
        }
        assert SessionCounters.of(parallel) == SessionCounters.of(serial)

    def test_probe_many_mixed_wave(self, monkeypatch):
        from repro.core import session

        pools = []
        make_pool = session.make_pool
        monkeypatch.setattr(
            session,
            "make_pool",
            lambda workers: pools.append(workers) or make_pool(workers),
        )
        ctx = make_ctx(workers=4)
        with ctx:
            compiled, profiled = ctx.probe_many(
                programs=toy_variants(ctx.program),
                variants=[(None, None)],
            )
        assert len(compiled) == 3 and len(profiled) == 1
        assert pools == [4]  # both probe kinds share the one pool
        assert ctx.counters.compile_executions == 3
        assert ctx.counters.profile_executions == 1
        window = ctx.replay_perf(0)
        assert window is not None
        assert window.packets == len(ctx.trace)

    def test_close_releases_pools_and_allows_reuse(self):
        ctx = make_ctx(workers=2)
        ctx.probe_many(programs=toy_variants(ctx.program))
        assert ctx._executor is not None
        ctx.close()
        assert ctx._executor is None
        # The session still works after close (pools recreate lazily).
        ctx.probe_many(programs=[ctx.program.with_table_size("fib", 16)])
        ctx.close()

    def test_batch_after_serial_profile(self):
        """Regression: a serial profile memoizes exec-compiled header
        codecs onto the program's header types; the program must still
        pickle into worker processes afterwards."""
        import pickle

        ctx = make_ctx(workers=4)
        ctx.profile()  # populates the per-header-type codec caches
        assert pickle.loads(pickle.dumps(ctx.program)) is not None
        with ctx:
            compiled, _ = ctx.probe_many(programs=toy_variants(ctx.program))
        assert len(compiled) == 3
        assert ctx.counters.compile_executions == 3

    def test_thread_fallback_without_process_pools(self, monkeypatch):
        """On a platform without multiprocessing primitives (no
        ``sem_open``) ``make_pool`` falls back to threads; the batch
        must complete with the results and counters of the process-pool
        run."""
        from concurrent.futures import ThreadPoolExecutor

        from repro.core import fanout

        def probe():
            ctx = make_ctx(workers=2)
            with ctx:
                compiled, profiled = ctx.probe_many(
                    programs=toy_variants(ctx.program),
                    variants=[
                        (None, None),
                        (None, ctx.config.restricted_to(["fib"])),
                    ],
                )
                pool = type(ctx._executor[1])
            return (
                [c.stages_used for c in compiled],
                [profile for profile, _perf in profiled],
                ctx.counters.as_dict(),
            ), pool

        def no_processes(*_args, **_kwargs):
            raise OSError("sem_open is not implemented")

        expected, process_pool = probe()
        monkeypatch.setattr(fanout, "ProcessPoolExecutor", no_processes)
        fallback, thread_pool = probe()
        assert fallback == expected
        assert process_pool is not ThreadPoolExecutor
        assert thread_pool is ThreadPoolExecutor


class TestPipelineDeterminism:
    """ISSUE 4 acceptance: P2GOResult is canonically identical for
    workers=1 vs workers=4 across the example programs."""

    @pytest.fixture(scope="class")
    def firewall_inputs(self):
        return (
            fw.build_program(),
            fw.runtime_config(),
            fw.make_trace(TRACE_PACKETS),
            fw.TARGET,
        )

    def run(self, inputs, workers):
        program, config, trace, target = inputs
        # store=False: canonical() includes the session counters and
        # per-phase perf, which are a store-less property — with
        # $P2GO_STORE set the second run would warm-start from the
        # first's disk entries (tests/test_store.py owns that axis).
        return P2GO(
            fw.build_program(), fw.runtime_config(), trace, target,
            workers=workers, store=False,
        ).run()

    def test_firewall_byte_identical(self, firewall_inputs):
        serial = self.run(firewall_inputs, workers=1)
        parallel = self.run(firewall_inputs, workers=4)
        assert canonical(serial) == canonical(parallel)
        assert serial.workers == 1 and parallel.workers == 4

    def test_toy_byte_identical(self):
        def run(workers):
            return P2GO(
                build_toy_program(), toy_config(), make_trace(),
                DEFAULT_TARGET, workers=workers, store=False,
            ).run()

        assert canonical(run(1)) == canonical(run(4))

    def test_report_renders_worker_count(self, firewall_inputs):
        from repro.core.report import render_report

        parallel = self.run(firewall_inputs, workers=4)
        assert "compile/profile session (4 workers):" in render_report(
            parallel
        )


def test_merge_perf_submission_order_is_deterministic():
    """merge_perf sums; the session feeds it submission-ordered perfs, so
    equal multisets of replays merge to equal totals."""
    from repro.sim.perf import PerfCounters

    a = PerfCounters(packets=5, timed_packets=5, elapsed_seconds=0.5,
                     table_lookups={"t": 2})
    b = PerfCounters(packets=7, timed_packets=7, elapsed_seconds=0.25,
                     table_lookups={"t": 3, "u": 1})
    ab, ba = merge_perf([a, b]), merge_perf([b, a])
    assert (ab.packets, ab.table_lookups) == (ba.packets, ba.table_lookups)
