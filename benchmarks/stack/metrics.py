"""Metric tables of the stack benchmark and the wrap targets behind them.

One place says what is measured, in which unit, which direction is
better and — for end-to-end metrics — by how much a later change may
worsen it.  ``BENCHMARK.json`` at the repo root lists the same names;
``test_tracer.py`` checks the two agree.

Layer = module.  ``*_s`` per-layer metrics are span *self* times from
the traced run, ``*_calls`` without a public counter are span counts
from the same run, everything else is read from the untraced run's
public counters.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Tuple

from tracer import Target

#: (name, unit, better, bound).  Every one applies to every workload and
#: is never zero — the benchmark contract reports each on every run.
#: Seconds are at nominal host speed (``hostspeed.py``).
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("wall_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
]

#: Wrap targets of the traced run: (span name, module, attribute path).
TARGETS: List[Target] = [
    ("sim.replay", "repro.sim.switch", "BehavioralSwitch.process_many"),
    ("sim.process", "repro.sim.switch", "BehavioralSwitch.process"),
    ("sim.build", "repro.sim.switch", "BehavioralSwitch.__init__"),
    ("analysis.deps", "repro.analysis.dependencies", "build_dependency_graph"),
    ("analysis.cgraph", "repro.analysis.control_graph", "ControlGraph.__init__"),
    ("target.compile", "repro.target.compiler", "compile_program"),
    ("target.allocate", "repro.target.allocation", "allocate"),
    ("instrument", "repro.core.instrument", "instrument"),
    ("profiler.run", "repro.core.profiler", "Profiler.run"),
    ("session.compile", "repro.core.session", "OptimizationContext.compile"),
    (
        "session.profile",
        "repro.core.session",
        "OptimizationContext.profile_with_perf",
    ),
    (
        "session.program_key",
        "repro.core.session",
        "OptimizationContext.program_key",
    ),
    ("store.load", "repro.core.store", "SessionStore.load_compile"),
    ("store.load", "repro.core.store", "SessionStore.load_profile"),
    ("store.write", "repro.core.store", "SessionStore.store_compile"),
    ("store.write", "repro.core.store", "SessionStore.store_profile"),
    ("store.claim", "repro.core.store", "SessionStore.claim_probe"),
    ("store.wait", "repro.core.store", "SessionStore.wait_for_probe"),
    ("passes.run", "repro.core.passes", "PassManager.run"),
    (
        "passes.phase2",
        "repro.core.phase_dependencies",
        "DependencyRemovalPass.run",
    ),
    ("passes.phase3", "repro.core.phase_memory", "MemoryReductionPass.run"),
    ("passes.phase4", "repro.core.phase_offload", "OffloadPass.run"),
    ("pipeline.execute", "repro.core.pipeline", "SwitchRun.execute"),
    ("controller.equiv", "repro.controller.equivalence", "compare_behavior"),
    (
        "controller.equiv",
        "repro.controller.equivalence",
        "compare_with_offload",
    ),
    ("fleet.run", "repro.core.fleet", "run_fleet"),
    ("explore.run", "repro.explore.explorer", "Explorer.run"),
    ("explore.frontier", "repro.explore.frontier", "pareto_front"),
    ("serve.run", "repro.core.serve", "ContinuousOptimizer.run"),
    ("online.process", "repro.core.online", "OnlineProfiler.process"),
    ("online.reoptimize", "repro.core.online", "OnlineProfiler.reoptimize"),
]

#: Per-layer seconds: metric -> the span names whose self time it sums.
#: Together with the harness root these cover every span name, so the
#: rows of one workload (``passes.self_s`` aside, which totals the three
#: phases and the manager) add up to its traced wall clock.
SPAN_SECONDS: Dict[str, Tuple[str, ...]] = {
    "sim.replay_s": ("sim.replay",),
    "sim.process_s": ("sim.process",),
    "sim.build_s": ("sim.build",),
    "analysis.deps_s": ("analysis.deps",),
    "analysis.cgraph_s": ("analysis.cgraph",),
    "target.compile_self_s": ("target.compile",),
    "target.allocate_s": ("target.allocate",),
    "instrument.s": ("instrument",),
    "profiler.self_s": ("profiler.run",),
    "session.self_s": ("session.compile", "session.profile"),
    "session.program_key_s": ("session.program_key",),
    "store.load_s": ("store.load",),
    "store.write_s": ("store.write",),
    "store.claim_s": ("store.claim", "store.wait"),
    "passes.self_s": (
        "passes.run",
        "passes.phase2",
        "passes.phase3",
        "passes.phase4",
    ),
    "passes.phase2_s": ("passes.phase2",),
    "passes.phase3_s": ("passes.phase3",),
    "passes.phase4_s": ("passes.phase4",),
    "pipeline.self_s": ("pipeline.execute",),
    "controller.equiv_s": ("controller.equiv",),
    "fleet.self_s": ("fleet.run",),
    "explore.self_s": ("explore.run",),
    "explore.frontier_s": ("explore.frontier",),
    "serve.self_s": ("serve.run",),
    "online.process_s": ("online.process",),
    "online.reopt_self_s": ("online.reoptimize",),
}

#: Per-layer call counts taken from the traced run's spans.
SPAN_CALLS: Dict[str, Tuple[str, ...]] = {
    "sim.replay_calls": ("sim.replay",),
    "sim.process_calls": ("sim.process",),
    "analysis.deps_calls": ("analysis.deps",),
    "analysis.cgraph_calls": ("analysis.cgraph",),
    "target.compile_calls": ("target.compile",),
    "instrument.calls": ("instrument",),
    "profiler.runs": ("profiler.run",),
    "controller.equiv_calls": ("controller.equiv",),
}

#: Counts that must repeat exactly across a workload's repetitions
#: (the determinism check); also reported per layer.
EXACT_COUNTS: List[str] = [
    "stages_saved",
    "session.compile_calls",
    "session.compile_exec",
    "session.compile_memo_hits",
    "session.compile_disk_hits",
    "session.profile_calls",
    "session.profile_exec",
    "session.profile_memo_hits",
    "session.profile_disk_hits",
    "sim.replay_pkts",
    "explore.points_infeasible",
    "serve.swaps",
    "serve.alerts",
    "serve.rejected",
    "store.leases_reaped",
]

#: Everything else per layer: (name, unit, better).  Gauges are medians
#: over the untraced repetitions unless ``run.py`` says otherwise.
_OTHER: List[Tuple[str, str, str]] = [
    ("sim.replay_pps", "1/s", "higher"),
    ("sim.cache_hit_ratio", "ratio", "higher"),
    ("sim.kernel.reference_pps", "1/s", "higher"),
    ("sim.kernel.cached_pps", "1/s", "higher"),
    ("sim.kernel.fastpath_pps", "1/s", "higher"),
    ("sim.kernel.single_pps", "1/s", "higher"),
    ("session.cache_answer_ratio", "ratio", "higher"),
    ("session.disk_reuse_ratio", "ratio", "higher"),
    ("store.load_calls", "count", "lower"),
    ("store.load_hit_ratio", "ratio", "higher"),
    ("store.write_calls", "count", "lower"),
    ("store.bytes", "B", "lower"),
    ("store.entries", "count", "lower"),
    ("store.lease_claims", "count", "lower"),
    ("store.lease_waits", "count", "lower"),
    ("store.lease_wait_hits", "count", "higher"),
    ("fleet.switch_busy_s", "s", "lower"),
    ("fleet.parallel_eff", "ratio", "higher"),
    ("fleet.fanout_overhead_s", "s", "lower"),
    ("fleet.spec_pickle_ms", "ms", "lower"),
    ("fleet.spec_pickle_kb", "kB", "lower"),
    ("fleet.result_pickle_kb", "kB", "lower"),
    ("explore.point_busy_s", "s", "lower"),
    ("explore.parallel_eff", "ratio", "higher"),
    ("serve.initial_opt_s", "s", "lower"),
    ("serve.ingest_s", "s", "lower"),
    ("serve.swap_s", "s", "lower"),
    ("online.reopt_s", "s", "lower"),
    # User-visible serve numbers.  They would be end-to-end metrics, but
    # the benchmark contract wants every end-to-end metric non-zero on
    # every workload and these exist on serve_drift only.
    ("serve.pps", "1/s", "higher"),
    ("serve.pkt_ms_p50", "ms", "lower"),
    ("serve.pkt_ms_p99", "ms", "lower"),
    ("serve.reopt_s", "s", "lower"),
    ("serve.swap_ms", "ms", "lower"),
    ("p4.build_s", "s", "lower"),
    ("traffic.gen_s", "s", "lower"),
    ("traffic.pkts", "count", "higher"),
    ("harness.unattributed_ratio", "ratio", "lower"),
    ("harness.trace_overhead_ratio", "ratio", "lower"),
    # The host-speed kernel's slice time beside the repetitions, and the
    # medians as the clock read them, before scaling to nominal speed.
    ("harness.calib_ms", "ms", "lower"),
    ("harness.wall_raw_s", "s", "lower"),
    ("harness.cpu_raw_s", "s", "lower"),
]

_HIGHER_IS_BETTER = {"stages_saved", "serve.swaps"}

PER_LAYER: List[Tuple[str, str, str]] = (
    [(name, "s", "lower") for name in SPAN_SECONDS]
    + [(name, "count", "lower") for name in SPAN_CALLS]
    + [
        (name, "count", "higher" if name in _HIGHER_IS_BETTER else "lower")
        for name in EXACT_COUNTS
    ]
    + _OTHER
)

ROOT_SPAN = "harness.op"


def span_metrics(
    self_times: Mapping[str, Tuple[float, int]],
) -> Dict[str, float]:
    """The trace-derived per-layer metrics of one traced operation."""
    metrics: Dict[str, float] = {}
    for metric, names in SPAN_SECONDS.items():
        metrics[metric] = sum(self_times.get(n, (0.0, 0))[0] for n in names)
    for metric, names in SPAN_CALLS.items():
        metrics[metric] = sum(self_times.get(n, (0.0, 0))[1] for n in names)
    total = sum(seconds for seconds, _calls in self_times.values())
    root = self_times.get(ROOT_SPAN, (0.0, 0))[0]
    metrics["harness.unattributed_ratio"] = root / total if total else 0.0
    return metrics
