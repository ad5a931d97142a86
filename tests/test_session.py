"""Unit tests for the memoizing compile/profile session."""

import dataclasses

import pytest

from repro.core import session
from repro.core.session import (
    OptimizationContext,
    ProbeRecord,
    SessionCounters,
    Source,
    config_fingerprint,
    program_fingerprint,
    trace_fingerprint,
)
from repro.core.profiler import PerfCounters, Profile
from repro.sim.events import ExecutionStep
from repro.target.model import DEFAULT_TARGET

from .conftest import build_toy_program, toy_config


def make_trace():
    from repro.packets.craft import udp_packet

    return [
        udp_packet("1.1.1.1", "10.0.0.9", 5, 53) for _ in range(4)
    ] + [
        udp_packet("2.2.2.2", "10.0.0.9", 5, 80) for _ in range(4)
    ]


@pytest.fixture
def ctx():
    return OptimizationContext(
        build_toy_program(), toy_config(), make_trace(), DEFAULT_TARGET
    )


class TestFingerprints:
    def test_program_fingerprint_content_keyed(self):
        a, b = build_toy_program(), build_toy_program()
        assert a is not b
        assert program_fingerprint(a) == program_fingerprint(b)

    def test_program_fingerprint_sees_resize(self):
        a = build_toy_program()
        assert program_fingerprint(a) != program_fingerprint(
            a.with_table_size("fib", 32)
        )

    def test_config_fingerprint_ignores_mutation_stamp(self):
        a, b = toy_config(), toy_config()
        b.mutations += 7
        assert config_fingerprint(a) == config_fingerprint(b)

    def test_config_fingerprint_sees_new_entry(self):
        a, b = toy_config(), toy_config()
        b.add_entry("acl", [123], "deny")
        assert config_fingerprint(a) != config_fingerprint(b)

    def test_config_fingerprint_equal_for_equal_restrictions(self):
        a = toy_config()
        assert config_fingerprint(a.restricted_to(["fib"])) == (
            config_fingerprint(a.restricted_to(["fib"]))
        )


class TestMemoization:
    def test_compile_memo_hit_same_object(self, ctx):
        first = ctx.compile()
        second = ctx.compile()
        assert first is second
        assert ctx.counters.compile_calls == 2
        assert ctx.counters.compile_executions == 1
        assert ctx.counters.compile_hits == 1

    def test_compile_memo_hit_equal_content(self, ctx):
        first = ctx.compile(build_toy_program())
        second = ctx.compile(build_toy_program())
        assert first is second
        assert ctx.counters.compile_executions == 1

    def test_compile_miss_on_different_content(self, ctx):
        ctx.compile()
        ctx.compile(ctx.program.with_table_size("fib", 32))
        assert ctx.counters.compile_executions == 2

    def test_profile_memo_hit(self, ctx):
        first = ctx.profile()
        second = ctx.profile()
        assert first is second
        assert ctx.counters.profile_executions == 1
        assert ctx.counters.profile_hits == 1

    def test_profile_keyed_on_config_content(self, ctx):
        ctx.profile()
        other = toy_config()
        other.add_entry("acl", [80], "deny")
        ctx.profile(config=other)
        assert ctx.counters.profile_executions == 2
        # Restricting to all tables is an identity restriction — equal
        # content, so it shares the full config's cache line.
        ctx.profile(config=ctx.config.restricted_to(["fib", "acl"]))
        assert ctx.counters.profile_executions == 2
        # A genuinely narrower restriction is a new cache line, and two
        # equal-content restriction objects share it.
        ctx.profile(config=ctx.config.restricted_to(["fib"]))
        ctx.profile(config=ctx.config.restricted_to(["fib"]))
        assert ctx.counters.profile_executions == 3

    def test_profile_results_match_uncached(self, ctx):
        from repro.core.profiler import Profiler

        cached = ctx.profile()
        direct = Profiler(ctx.program, ctx.config).run(ctx.trace)
        assert cached.same_behavior_as(direct)


class TestProbeLog:
    """One record per probe: what answered it, in the order asked; the
    counters are a tally of it."""

    def test_log_names_what_answered(self, ctx):
        ctx.compile()
        ctx.compile()
        ctx.profile()
        assert [(r.kind, r.source) for r in ctx.probes] == [
            ("compile", Source.EXECUTED),
            ("analysis", Source.EXECUTED),
            ("compile", Source.MEMO),
            ("profile", Source.EXECUTED),
        ]
        assert ctx.probes[0] == ProbeRecord(
            "compile",
            (ctx.program_key(ctx.program), ctx.target.fingerprint()),
            Source.EXECUTED,
        )

    def test_counters_are_a_tally_of_the_log(self, ctx):
        ctx.compile()
        ctx.profile()
        ctx.profile()
        assert SessionCounters.of(ctx.probes) == ctx.counters
        assert ctx.counters.as_dict() == {
            "compile_calls": 1,
            "compile_executions": 1,
            "compile_hits": 0,
            "compile_disk_hits": 0,
            "profile_calls": 2,
            "profile_executions": 1,
            "profile_hits": 1,
            "profile_disk_hits": 0,
            "analysis_calls": 1,
            "analysis_executions": 1,
            "analysis_hits": 0,
            "analysis_disk_hits": 0,
        }
        assert SessionCounters.of(ctx.probes[3:]).profile_hits == 1
        assert SessionCounters.of([]) == SessionCounters()

    def test_counters_are_a_frozen_snapshot(self, ctx):
        before = ctx.counters
        with pytest.raises(dataclasses.FrozenInstanceError):
            before.compile_calls = 7
        ctx.compile()
        assert before.compile_calls == 0
        assert ctx.counters.compile_calls == 1

    def test_compile_that_raises_is_logged_executed(self):
        from repro.exceptions import AllocationError
        from repro.programs import example_firewall as fw

        ctx = OptimizationContext(
            fw.build_program(), fw.runtime_config(), make_trace(),
            dataclasses.replace(fw.TARGET, sram_blocks_per_stage=1),
        )
        with pytest.raises(AllocationError):
            ctx.compile()
        assert ctx.probes[0].source is Source.EXECUTED
        assert ctx.counters.compile_executions == 1


class TestTraceIdentity:
    """Regression: the profile memo must be keyed on the trace too — a
    session whose trace is swapped (e.g. after an OnlineProfiler drift
    alert) must not serve profiles recorded on the old traffic."""

    def test_trace_swap_invalidates_profile_cache(self, ctx):
        from repro.packets.craft import udp_packet

        before = ctx.profile()
        assert ctx.counters.profile_executions == 1
        # Swap the trace: every packet now hits the ACL's DNS entry.
        ctx.trace = [
            udp_packet("3.3.3.3", "10.0.0.9", 5, 53) for _ in range(6)
        ]
        after = ctx.profile()
        assert ctx.counters.profile_executions == 2
        assert not before.same_behavior_as(after)
        assert after.total_packets == 6

    def test_trace_swap_back_is_a_memo_hit(self, ctx):
        original = list(ctx.trace)
        first = ctx.profile()
        ctx.trace = original[:4]
        ctx.profile()
        assert ctx.counters.profile_executions == 2
        # Swapping back to equal-content traffic restores the cache line.
        ctx.trace = original
        again = ctx.profile()
        assert ctx.counters.profile_executions == 2
        assert again is first

    def test_trace_swap_rekeys_disk_hydration(self, tmp_path):
        """Assigning a new trace re-keys disk lookups too: a swapped
        trace finds the entry another session persisted for that
        traffic — the disk-tier mirror of the stale-profile regression
        above."""
        from repro.core.store import SessionStore
        from repro.packets.craft import udp_packet

        store_root = tmp_path / "store"
        drifted = [
            udp_packet("3.3.3.3", "10.0.0.9", 5, 53) for _ in range(6)
        ]
        # Another session persists the drifted traffic's profile.
        other = OptimizationContext(
            build_toy_program(), toy_config(), drifted, DEFAULT_TARGET,
            store=SessionStore(store_root),
        )
        other.profile()
        other.close()

        ctx = OptimizationContext(
            build_toy_program(), toy_config(), make_trace(),
            DEFAULT_TARGET, store=SessionStore(store_root),
        )
        ctx.profile()  # original traffic: disk miss, real replay
        assert ctx.counters.profile_executions == 1
        ctx.trace = drifted
        ctx.profile()
        assert ctx.counters.profile_executions == 1  # no re-replay
        assert ctx.counters.profile_disk_hits == 1

    def test_serial_entry_is_on_disk_under_its_execution_time_key(
        self, tmp_path
    ):
        """A serial probe is written through: another handle on the
        root loads it before any commit()/close(), and it sits under
        the key it was executed with — a later trace swap cannot
        mis-key it."""
        from repro.core.store import SessionStore

        ctx = OptimizationContext(
            build_toy_program(), toy_config(), make_trace(),
            DEFAULT_TARGET, store=SessionStore(tmp_path / "store"),
        )
        old_key = ctx._profile_key(ctx.program, ctx.config)
        ctx.profile()
        ctx.trace = list(ctx.trace)[:4]
        new_key = ctx._profile_key(ctx.program, ctx.config)
        other = SessionStore(tmp_path / "store")
        assert other.load_profile(old_key) is not None
        assert other.load_profile(new_key) is None

    def test_trace_fingerprint_sees_ingress_port(self):
        from repro.core.session import trace_fingerprint
        from repro.packets.craft import udp_packet

        packet = udp_packet("1.1.1.1", "10.0.0.9", 5, 53)
        assert trace_fingerprint([packet]) == trace_fingerprint([packet])
        assert trace_fingerprint([packet]) != trace_fingerprint(
            [(packet, 7)]
        )
        assert trace_fingerprint([(packet, 0)]) == trace_fingerprint(
            [packet]
        )


class TestProgramKeyCacheBound:
    """Regression: a per-object digest cache on the session held a
    strong ref to every program ever probed, leaking each rejected
    candidate AST.  The key is pinned on the program now, so the session
    holds none."""

    def test_cache_is_bounded(self, ctx):
        import gc
        import weakref

        programs = [
            ctx.program.with_table_size("fib", size) for size in range(2, 50)
        ]
        keys = [ctx.program_key(program) for program in programs]
        assert len(set(keys)) == len(programs)
        alive = [weakref.ref(program) for program in programs]
        del programs
        gc.collect()
        assert [ref for ref in alive if ref() is not None] == []
        assert not any(
            isinstance(value, dict) and len(value) >= len(keys)
            for value in vars(ctx).values()
        )

    def test_evicted_program_rekeys_consistently(self, ctx):
        program = ctx.program
        first = ctx.program_key(program)
        for size in range(2, 8):
            ctx.program_key(program.with_table_size("fib", size))
        assert ctx.program_key(program) == first
        # An equal program built afresh keys the same, printed anew.
        assert ctx.program_key(dataclasses.replace(program)) == first


class TestPerfWindows:
    """``replay_perf(since)``: the replays executed from a log position
    on — the window a phase opens by noting ``len(ctx.probes)``."""

    def test_window_collects_actual_replays_only(self, ctx):
        start = len(ctx.probes)
        ctx.profile()
        perf = ctx.replay_perf(start)
        assert perf is not None
        assert perf.packets == len(ctx.trace)
        # A memo hit pays nothing: the next window is empty.
        start = len(ctx.probes)
        ctx.profile()
        assert ctx.replay_perf(start) is None

    def test_replay_before_first_window_is_not_attributed(self, ctx):
        """Regression: replays during pipeline setup (before a phase
        notes its start) must not leak into any phase's window."""
        ctx.profile()  # setup replay
        start = len(ctx.probes)
        ctx.compile()
        assert ctx.replay_perf(start) is None

    def test_replay_between_windows_is_not_attributed(self, ctx):
        start = len(ctx.probes)
        ctx.profile()
        end = len(ctx.probes)
        assert ctx.replay_perf(start) is not None
        # A fresh replay on a new trace after the window closed must
        # not show up in that window, only in one opened before it.
        ctx.trace = list(ctx.trace)[:4]
        ctx.profile()
        assert ctx.counters.profile_executions == 2
        assert ctx.replay_perf(start).packets == len(make_trace()) + 4
        assert ctx.replay_perf(end).packets == 4
        assert ctx.replay_perf(len(ctx.probes)) is None

    def test_merge_perf(self):
        """Merging the perf of several replays is ``PerfCounters.of``:
        packets and per-step lookups summed over the profiles, in any
        order; a table applied twice to a packet is looked up twice."""
        t, u = ExecutionStep("t", "a", True), ExecutionStep("u", "b", False)
        a = Profile("p", {(t,): 2, (t, u): 3}, ())
        b = Profile("p", {(u, t, u): 7}, ())
        merged = PerfCounters.of([a, b])
        assert merged == PerfCounters(12, {"t": 12, "u": 17})
        assert PerfCounters.of([b, a]) == merged
        assert PerfCounters.of([]) == PerfCounters()
        assert (merged.cache_hits, merged.cache_misses) == (0, 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            merged.packets = 0

    def test_window_equals_the_executed_profiles(self, ctx):
        start = len(ctx.probes)
        profile = ctx.profile()
        ctx.profile(config=ctx.config.restricted_to(["fib"]))
        other = ctx.profile(config=ctx.config.restricted_to(["fib"]))
        assert ctx.replay_perf(start) == PerfCounters.of([profile, other])


def test_removed_session_pieces_stay_removed(tmp_path):
    """One door to the session: phases 3 and 4 probe only through the
    session they are handed (never a ``trace``/``target`` of their own,
    never a private session), the baselines never take one,
    ``reoptimize`` always uses the monitor's, neither the run layer
    nor the session has a memo switch, the passes' round limits live
    only on the passes, phase 4 has neither a stage-savings floor
    nor a multi-segment combination to switch on, and a session probes
    serially: no worker count, no batch probe."""
    import inspect

    from repro.baselines import compile_static, optimize_with_policy
    from repro.cli import main
    from repro.core import phase_memory, phase_offload
    from repro.core.online import OnlineProfiler
    from repro.core.pipeline import P2GO, P2GOResult, SwitchRun
    from repro.core.seed_pipeline import run_seed

    removed = [
        (phase_memory.find_candidates, ("trace", "target", "session")),
        (phase_memory.minimal_reduction, ("trace", "target", "session")),
        (phase_memory.run_phase, ("trace", "target", "session")),
        (
            phase_offload.run_phase,
            (
                "trace", "target", "session", "min_stage_savings",
                "allow_combination",
            ),
        ),
        (
            phase_offload.evaluate_candidates,
            ("trace", "target", "session", "min_stage_savings"),
        ),
        (phase_offload.select_candidate, ("min_stage_savings",)),
        (
            phase_offload.OffloadPass,
            ("min_stage_savings", "allow_combination"),
        ),
        (phase_offload.make_offloaded_program, ("reason",)),
        (run_seed, ("offload_min_stage_savings",)),
        (compile_static, ("session",)),
        (optimize_with_policy, ("session",)),
        (OnlineProfiler.reoptimize, ("store", "target")),
        (
            SwitchRun,
            (
                "memoize",
                "max_dependency_removals",
                "max_memory_reductions",
                "offload_min_stage_savings",
                "workers",
            ),
        ),
        (OptimizationContext, ("memoize", "workers")),
    ]
    for function, names in removed:
        parameters = inspect.signature(function).parameters
        for name in names:
            assert name not in parameters, (function, name)
    # The daemon passes no free-form run knobs through.
    from repro.core.serve import ContinuousOptimizer

    assert all(
        parameter.kind is not parameter.VAR_KEYWORD
        for parameter in inspect.signature(
            ContinuousOptimizer
        ).parameters.values()
    )
    # The probe log is the one record: no hand-bumped counters, no
    # perf-window side channel.
    for owner, name in (
        (SessionCounters, "bump"),
        (OptimizationContext, "start_perf_window"),
        (OptimizationContext, "take_perf_window"),
        (session, "merge_perf"),
        # Program keys are pinned on the program, not cached here.
        (session, "DEFAULT_PROGRAM_KEY_CACHE"),
        # Phase 4 offloads one segment: no multi-segment combination.
        (phase_offload, "select_combination"),
        (phase_offload, "_try_combination"),
        (phase_offload, "make_combined_offloaded_program"),
        # A session probes serially: no batch door, no pool.
        (OptimizationContext, "probe_many"),
        (OptimizationContext, "_probe_parallel"),
        (OptimizationContext, "_pool"),
        # Reached only from the ablation bench, which now holds it.
        (phase_memory, "linear_minimal_reduction"),
    ):
        assert not hasattr(owner, name), name
    assert "workers" not in {
        field.name for field in dataclasses.fields(P2GOResult)
    }
    with pytest.raises(TypeError, match="workers"):
        P2GO(
            build_toy_program(), toy_config(), make_trace(),
            DEFAULT_TARGET, workers=2,
        )
    with pytest.raises(SystemExit) as exited:
        main([
            "optimize", str(tmp_path / "p.p4"),
            "--trace", str(tmp_path / "t.pcap"), "--workers", "2",
        ])
    assert exited.value.code == 2
    with pytest.raises(SystemExit) as exited:
        main([
            "optimize", str(tmp_path / "p.p4"),
            "--trace", str(tmp_path / "t.pcap"), "--no-memo",
        ])
    assert exited.value.code == 2
