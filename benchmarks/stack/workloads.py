"""The six workloads of the stack benchmark.

Each workload drives one user-facing verb through its public entry
point, closed loop with one client: the next operation starts when the
previous one returned.  A workload knows how to

* ``setup(seed, workdir)`` — build programs, generate traffic, populate
  stores: everything the timed operation takes as given;
* ``operate(state, store_dir, serial)`` — one timed operation
  (``serial`` selects the in-process path of the pooled verbs, which the
  traced run uses so that spans stay in one process);
* ``observe(state, outcome)`` — exact counts and gauges read from the
  outcome's public counters;
* ``check(state, outcome)`` — why the operation's output is wrong, if
  it is;
* ``kernel_inputs(state)`` — the program, config and trace the
  simulator kernel probes replay.

``WORKLOADS`` is the table; each ``why`` says what the workload is for.
"""

from __future__ import annotations

import pickle
import statistics
import time
from pathlib import Path
from types import SimpleNamespace
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.controller.equivalence import (
    compare_behavior,
    compare_with_offload,
)
from repro.core import fleet
from repro.core.phase_offload import enumerate_candidates
from repro.core.pipeline import P2GO, P2GOResult
from repro.core.serve import ContinuousOptimizer, GeneratorFeed
from repro.core.session import SessionCounters
from repro.core.store import SessionStore
from repro.explore import Explorer, seed_space
from repro.programs import enterprise, example_firewall

#: nproc is 2 on the reference box; the pooled verbs use both cores.
POOL_WORKERS = 2

#: (exact counts, gauges).  Exact counts must repeat across repetitions.
Observation = Tuple[Dict[str, int], Dict[str, float]]


# ----------------------------------------------------------------------
# Readers of the layers' public counters


def session_counts(
    counters: Iterable[Optional[SessionCounters]],
) -> Dict[str, int]:
    fields = {
        "session.compile_calls": "compile_calls",
        "session.compile_exec": "compile_executions",
        "session.compile_memo_hits": "compile_hits",
        "session.compile_disk_hits": "compile_disk_hits",
        "session.profile_calls": "profile_calls",
        "session.profile_exec": "profile_executions",
        "session.profile_memo_hits": "profile_hits",
        "session.profile_disk_hits": "profile_disk_hits",
    }
    totals = dict.fromkeys(fields, 0)
    for one in counters:
        if one is not None:
            for metric, attribute in fields.items():
                totals[metric] += getattr(one, attribute)
    return totals


def replay_perf(results: Iterable[P2GOResult]) -> Tuple[int, float]:
    """(packets replayed, flow-cache hit ratio) over the replays the
    runs executed themselves: each phase outcome carries the perf of its
    own replays, memo and disk hits carry none."""
    packets = hits = lookups = 0
    for result in results:
        for outcome in result.outcomes:
            perf = outcome.profiling_perf
            if perf is not None:
                packets += perf.packets
                hits += perf.cache_hits
                lookups += perf.cache_hits + perf.cache_misses
    return packets, (hits / lookups if lookups else 0.0)


def store_observation(
    handles: Iterable[Optional[dict]], root: Optional[str]
) -> Observation:
    """Store counters summed over every handle the operation opened
    (one per run, switch or design point) plus a census of ``root``."""
    keys = (
        "compile_hits",
        "profile_hits",
        "misses",
        "writes",
        "lease_claims",
        "lease_waits",
        "lease_wait_hits",
        "leases_reaped",
    )
    total = dict.fromkeys(keys, 0)
    for stats in handles:
        if stats is not None:
            for key in keys:
                total[key] += stats["counters"][key]
    hits = total["compile_hits"] + total["profile_hits"]
    loads = hits + total["misses"]
    census = SessionStore(root).stats()
    gauges = {
        "store.load_calls": loads,
        "store.load_hit_ratio": hits / loads if loads else 0.0,
        "store.write_calls": total["writes"],
        "store.lease_claims": total["lease_claims"],
        "store.lease_waits": total["lease_waits"],
        "store.lease_wait_hits": total["lease_wait_hits"],
        "store.bytes": census["total_bytes"],
        "store.entries": (
            census["compile_entries"] + census["profile_entries"]
        ),
    }
    return {"store.leases_reaped": total["leases_reaped"]}, gauges


def median_or_zero(values) -> float:
    return statistics.median(values) if values else 0.0


def reference_config(config):
    """``config`` on the reference interpreter — no flow cache, no
    compiled match structures: the tier the checks trust."""
    config = config.clone()
    config.enable_flow_cache = False
    config.enable_compiled_tables = False
    return config


def behaviour_failures(result: P2GOResult, config, trace) -> List[str]:
    """Original (under ``config``) vs optimized program over ``trace``
    on the reference interpreter: strict when nothing was offloaded,
    switch + controller against the original when phase 4 moved a
    segment out.

    Runs on a clone of the original: simulating a program memoizes
    codecs onto its header types, which every later ``clone()`` then
    deep-copies, and a check must not slow the next timed operation.
    """
    original = result.original_program.clone()
    sides = (
        original,
        reference_config(config),
        result.optimized_program,
        reference_config(result.final_config),
    )
    if result.offloaded_tables:
        segments = [
            candidate
            for candidate in enumerate_candidates(original)
            if set(candidate.tables) == set(result.offloaded_tables)
        ]
        if len(segments) != 1:
            return [
                f"offloaded tables {result.offloaded_tables} match "
                f"{len(segments)} segments of the original program"
            ]
        report = compare_with_offload(*sides, segments[0], trace)
    else:
        report = compare_behavior(*sides, trace)
    if report.equivalent:
        return []
    return [
        "optimized program disagrees with the original on "
        f"{len(report.mismatches)} of {report.total} packets "
        f"(first at index {report.mismatches[0]})"
    ]


# ----------------------------------------------------------------------
# optimize


class OptStateful:
    name = "opt_stateful"
    why = (
        "cold optimize of the paper's Ex. 1 firewall on 4000 packets: "
        "sketches and registers keep every replay on the interpreter, so "
        "repro.sim does most of the work"
    )
    seed_offset = 0
    module = example_firewall
    packets = 4000

    def build_config(self, program):
        return self.module.runtime_config()

    def setup(self, seed: int, workdir: Path) -> SimpleNamespace:
        t0 = time.perf_counter()
        program = self.module.build_program()
        config = self.build_config(program)
        t1 = time.perf_counter()
        trace = self.module.make_trace(self.packets, seed=seed)
        t2 = time.perf_counter()
        return SimpleNamespace(
            program=program,
            config=config,
            trace=trace,
            target=self.module.TARGET,
            store=False,
            # Equal fingerprint = equal optimized program, so one
            # replayed equivalence check covers every repetition that
            # reproduces it.
            verified={},
            timers={
                "p4.build_s": t1 - t0,
                "traffic.gen_s": t2 - t1,
                "traffic.pkts": len(trace),
            },
        )

    def operate(self, state, store_dir: str, serial: bool) -> P2GOResult:
        return P2GO(
            state.program,
            state.config,
            state.trace,
            state.target,
            phases=(2, 3, 4),
            store=state.store,
        ).run()

    def observe(self, state, result: P2GOResult) -> Observation:
        packets, hit_ratio = replay_perf([result])
        exact = session_counts([result.session_counters])
        exact["stages_saved"] = result.stages_before - result.stages_after
        exact["sim.replay_pkts"] = packets
        return exact, {"sim.cache_hit_ratio": hit_ratio}

    def check(self, state, result: P2GOResult) -> List[str]:
        fingerprint = fleet.switch_fingerprint(result)
        if fingerprint not in state.verified:
            state.verified[fingerprint] = behaviour_failures(
                result, state.config, state.trace
            )
        return list(state.verified[fingerprint])

    def kernel_inputs(self, state):
        return state.program, state.config, state.trace


class OptCompile(OptStateful):
    name = "opt_compile"
    why = (
        "cold optimize of the enterprise program on 1400 packets: "
        "dependency- and control-graph construction dominate and replay "
        "is the smaller part, the opposite budget of opt_stateful"
    )
    seed_offset = 1
    module = enterprise
    # Below ~1000 packets the seed decides whether shrinking a bloom
    # array collides on the trace, i.e. whether phase 3 costs 33 or 53
    # compiles; at 1400 all 24 seeds tried cost 53.  From 1500 on, the
    # heavy DNS stream fits the 10 % controller budget, phase 4
    # offloads it, and compare_with_offload flags the packets the
    # original drops in sourceguard before the sketch ever sees them.
    packets = 1400

    def build_config(self, program):
        return self.module.runtime_config(program)


class OptWarm(OptStateful):
    name = "opt_warm"
    why = (
        "optimize of the opt_stateful inputs against a store populated "
        "in set-up: every probe is a disk hit, so store reads, "
        "unpickling, fingerprinting and pass logic are all that is left"
    )

    def setup(self, seed: int, workdir: Path) -> SimpleNamespace:
        state = super().setup(seed, workdir)
        state.store = str(workdir / "store")
        self.operate(state, "", False)
        return state

    def observe(self, state, result: P2GOResult) -> Observation:
        exact, gauges = super().observe(state, result)
        store_exact, store_gauges = store_observation(
            [result.store_stats], state.store
        )
        return {**exact, **store_exact}, {**gauges, **store_gauges}

    def check(self, state, result: P2GOResult) -> List[str]:
        failures = super().check(state, result)
        counters = result.session_counters
        if counters.compile_executions or counters.profile_executions:
            failures.append(
                f"warm run executed {counters.compile_executions} compiles "
                f"and {counters.profile_executions} replays, expected none"
            )
        return failures


# ----------------------------------------------------------------------
# fleet


class FleetShared:
    name = "fleet_shared"
    why = (
        "8-switch fabric of four program families against one fresh "
        "shared store on a 2-process pool: cross-switch reuse, lease "
        "contention, pool fan-out and spec/result pickling do work "
        "only here"
    )
    seed_offset = 3
    switches = 8
    packets = 1200

    def setup(self, seed: int, workdir: Path) -> SimpleNamespace:
        t0 = time.perf_counter()
        specs = fleet.build_fabric(
            self.switches, packets=self.packets, seed=seed
        )
        elapsed = time.perf_counter() - t0
        return SimpleNamespace(
            specs=specs,
            reference=None,
            # build_fabric builds programs and traffic in one call; the
            # traffic dominates, so the time is booked there.
            timers={
                "p4.build_s": 0.0,
                "traffic.gen_s": elapsed,
                "traffic.pkts": sum(len(spec.trace) for spec in specs),
            },
        )

    def operate(self, state, store_dir: str, serial: bool):
        return fleet.run_fleet(
            state.specs,
            store=store_dir,
            workers=1 if serial else POOL_WORKERS,
        )

    def observe(self, state, result) -> Observation:
        results = [switch.result for switch in result.switches]
        packets, hit_ratio = replay_perf(results)
        exact = session_counts(r.session_counters for r in results)
        exact["stages_saved"] = result.aggregate()["stages_reclaimed"]
        exact["sim.replay_pkts"] = packets
        store_exact, gauges = store_observation(
            (r.store_stats for r in results), result.store_root
        )
        busy = sum(switch.seconds for switch in result.switches)
        # What crossing the pool boundary costs: every spec goes out and
        # every switch outcome comes back pickled.
        t0 = time.perf_counter()
        spec_bytes = sum(len(pickle.dumps(spec)) for spec in state.specs)
        pickle_seconds = time.perf_counter() - t0
        gauges.update(
            {
                "fleet.spec_pickle_ms": pickle_seconds * 1e3,
                "fleet.spec_pickle_kb": spec_bytes / 1e3,
                "fleet.result_pickle_kb": sum(
                    len(pickle.dumps(switch)) for switch in result.switches
                )
                / 1e3,
                "sim.cache_hit_ratio": hit_ratio,
                "fleet.switch_busy_s": busy,
                "fleet.parallel_eff": busy
                / (result.workers * result.wall_seconds),
                "fleet.fanout_overhead_s": result.wall_seconds
                - busy / result.workers,
            }
        )
        return {**exact, **store_exact}, gauges

    def check(self, state, result) -> List[str]:
        if state.reference is None:
            # The oracle: every switch optimized on its own, no store.
            standalone = fleet.run_fleet(
                state.specs, store=False, workers=POOL_WORKERS
            )
            state.reference = [
                fleet.switch_fingerprint(switch.result)
                for switch in standalone.switches
            ]
        failures = [
            f"{switch.name} differs from its standalone storeless run"
            for switch, expected in zip(result.switches, state.reference)
            if fleet.switch_fingerprint(switch.result) != expected
        ]
        reaped = result.aggregate()["leases_reaped"]
        if reaped:
            failures.append(f"{reaped} leases reaped; none may expire")
        return failures

    def kernel_inputs(self, state):
        spec = state.specs[0]
        return spec.program, spec.config, spec.trace


# ----------------------------------------------------------------------
# explore


def brute_force_frontier(outcomes) -> List[str]:
    """Point ids of the fitting points no other fitting point dominates
    — every pair compared, sharing no code with repro.explore.frontier."""

    def vector(outcome):
        m = outcome.metrics
        return (
            m["stages_used"],
            m["controller_load"],
            -m["profile_coverage"],
            m["compile_count"],
        )

    fitting = [o for o in outcomes if o.feasible and o.fits]
    vectors = [vector(o) for o in fitting]
    return [
        outcome.point.point_id
        for outcome, mine in zip(fitting, vectors)
        if not any(
            other != mine and all(a <= b for a, b in zip(other, mine))
            for other in vectors
        )
    ]


class ExploreGrid:
    name = "explore_grid"
    why = (
        "40-point design-space sweep of the firewall (20 infeasible) on "
        "a fresh shared store, 2-process pool: the same fan-out as fleet "
        "but read-heavy, with many compile-only points"
    )
    seed_offset = 4
    program = "example_firewall"
    packets = 1200

    def setup(self, seed: int, workdir: Path) -> SimpleNamespace:
        # Grid stages=2,3,4,6,12 x sram=8,16, two orders, two policies.
        # The trace is generated inside Explorer.run, i.e. in the timed
        # operation, because that is where `p2go explore` pays for it.
        return SimpleNamespace(
            space=seed_space([self.program]),
            seed=seed,
            timers={
                "p4.build_s": 0.0,
                "traffic.gen_s": 0.0,
                "traffic.pkts": self.packets,
            },
        )

    def operate(self, state, store_dir: str, serial: bool):
        result = Explorer(
            state.space,
            packets=self.packets,
            trace_seed=state.seed,
            workers=1 if serial else POOL_WORKERS,
            store=store_dir,
        ).run()
        return SimpleNamespace(result=result, frontier=result.frontier())

    def observe(self, state, outcome) -> Observation:
        result = outcome.result
        exact = session_counts(o.counters for o in result.outcomes)
        exact["stages_saved"] = sum(
            o.metrics["stages_before"] - o.metrics["stages_used"]
            for o in result.outcomes
            if o.feasible
        )
        # Point outcomes carry no replay perf; every executed replay
        # covers the whole trace.
        exact["sim.replay_pkts"] = (
            exact["session.profile_exec"] * self.packets
        )
        exact["explore.points_infeasible"] = result.aggregate()["infeasible"]
        store_exact, gauges = store_observation(
            (o.store_stats for o in result.outcomes), result.store_root
        )
        busy = sum(o.seconds for o in result.outcomes)
        gauges["explore.point_busy_s"] = busy
        gauges["explore.parallel_eff"] = busy / (
            result.workers * result.wall_seconds
        )
        return {**exact, **store_exact}, gauges

    def check(self, state, outcome) -> List[str]:
        front = [o.point.point_id for o in outcome.frontier[self.program]]
        expected = brute_force_frontier(outcome.result.outcomes)
        if not front:
            return ["empty frontier"]
        if front != expected:
            return [f"frontier {front} != brute-force recount {expected}"]
        return []

    def kernel_inputs(self, state):
        program, config, trace, _target = fleet.family_inputs(
            self.program, self.packets, state.seed
        )
        return program, config, trace


# ----------------------------------------------------------------------
# serve


class TimestampingFeed(GeneratorFeed):
    """A generator feed that notes when the daemon pulls each packet;
    the gap between two pulls is one packet's time in the daemon."""

    def __init__(self, segments):
        super().__init__(segments)
        self.pulls: List[float] = []

    def packets(self) -> Iterator:
        clock, stamp = time.perf_counter, self.pulls.append
        for packet in super().packets():
            stamp(clock())
            yield packet
        stamp(clock())


class ServeDrift:
    name = "serve_drift"
    why = (
        "the daemon serving 8000 packets whose mix shifts half way, "
        "sync mode: the only per-packet process() path (serving switch "
        "plus OnlineProfiler mirror), warm reoptimize, gate and swap"
    )
    seed_offset = 5
    baseline_packets = 3000
    feed_packets = 8000

    def setup(self, seed: int, workdir: Path) -> SimpleNamespace:
        t0 = time.perf_counter()
        program = example_firewall.build_program()
        config = example_firewall.runtime_config()
        t1 = time.perf_counter()
        baseline = example_firewall.make_trace(
            self.baseline_packets, seed=seed
        )
        feed = GeneratorFeed.firewall_drift(
            total=self.feed_packets, seed=seed, shift_at=0.5
        )
        t2 = time.perf_counter()
        return SimpleNamespace(
            program=program,
            config=config,
            baseline=baseline,
            segments=feed.segments,
            timers={
                "p4.build_s": t1 - t0,
                "traffic.gen_s": t2 - t1,
                "traffic.pkts": len(baseline) + self.feed_packets,
            },
        )

    def operate(self, state, store_dir: str, serial: bool):
        # Sync mode (workers=0): async swap counts depend on timing,
        # which would break the exact-count checks.
        feed = TimestampingFeed(state.segments)
        # The promotion gate simulates the original program in place
        # (see behaviour_failures); a clone per operation makes every
        # repetition start from a pristine program, as a daemon does.
        optimizer = ContinuousOptimizer(
            state.program.clone(),
            state.config,
            state.baseline,
            example_firewall.TARGET,
            window=400,
            hit_rate_tolerance=0.15,
            workers=0,
        )
        t0 = time.perf_counter()
        result = optimizer.run(feed)
        return SimpleNamespace(
            result=result,
            pulls=feed.pulls,
            wall=time.perf_counter() - t0,
        )

    def observe(self, state, outcome) -> Observation:
        result, stats = outcome.result, outcome.result.stats
        packets, hit_ratio = replay_perf(
            [result.initial, *result.promotions]
        )
        exact = session_counts([result.session_counters])
        exact.update(
            {
                "stages_saved": sum(
                    event.stages_before - event.stages_after
                    for event in stats.events
                    if event.promoted
                ),
                "sim.replay_pkts": packets,
                "serve.swaps": stats.swaps,
                "serve.alerts": (
                    stats.drift_alerts + stats.combination_alerts
                ),
                "serve.rejected": stats.rejected_promotions,
            }
        )
        gaps_ms = [
            (later - earlier) * 1e3
            for earlier, later in zip(outcome.pulls, outcome.pulls[1:])
        ]
        gauges = {
            "sim.cache_hit_ratio": hit_ratio,
            "serve.initial_opt_s": outcome.wall - stats.elapsed_seconds,
            "serve.ingest_s": stats.elapsed_seconds,
            "serve.swap_s": sum(stats.swap_seconds),
            "online.reopt_s": sum(stats.reoptimize_seconds),
            "serve.pps": stats.packets_per_second,
            "serve.pkt_ms_p50": statistics.median(gaps_ms),
            "serve.pkt_ms_p99": statistics.quantiles(gaps_ms, n=100)[98],
            "serve.reopt_s": median_or_zero(stats.reoptimize_seconds),
            "serve.swap_ms": median_or_zero(stats.swap_seconds) * 1e3,
        }
        return exact, gauges

    def check(self, state, outcome) -> List[str]:
        stats = outcome.result.stats
        failures = []
        if stats.misprocessed:
            failures.append(f"{stats.misprocessed} packets misprocessed")
        if stats.packets_processed != stats.packets_in:
            failures.append(
                f"{stats.packets_in} packets in, "
                f"{stats.packets_processed} processed"
            )
        if stats.swaps < 1:
            failures.append("no promotion was swapped in")
        return failures

    def kernel_inputs(self, state):
        return state.program, state.config, state.baseline


WORKLOADS = [
    OptStateful(),
    OptCompile(),
    OptWarm(),
    FleetShared(),
    ExploreGrid(),
    ServeDrift(),
]
