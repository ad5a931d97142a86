"""P2GO core: instrumentation, profiling, and the optimization phases.

Exports resolve lazily (PEP 562) so an import error in one phase module
(e.g. an optional dependency it gates on) does not take down every
consumer of :mod:`repro.core` — only accesses to that module's names
fail.
"""

import importlib

#: Public name -> defining submodule under ``repro.core``.
_EXPORTS = {
    "AlertKind": "online",
    "DependencyGuard": "runtime_guard",
    "OnlineAlert": "online",
    "OnlineProfiler": "online",
    "InstrumentedProgram": "instrument",
    "add_dependency_guard": "runtime_guard",
    "guard_notifications": "runtime_guard",
    "Decision": "observations",
    "Verdict": "observations",
    "Reason": "observations",
    "DependencyRemovalPass": "phase_dependencies",
    "MemoryReductionPass": "phase_memory",
    "OffloadPass": "phase_offload",
    "OptimizationContext": "session",
    "OptimizationPass": "passes",
    "P2GO": "pipeline",
    "P2GOResult": "pipeline",
    "SwitchRun": "pipeline",
    "FleetResult": "fleet",
    "FleetSwitch": "fleet",
    "build_fabric": "fleet",
    "run_fleet": "fleet",
    "render_fleet_report": "report",
    "ContinuousOptimizer": "serve",
    "FeedSource": "serve",
    "GeneratorFeed": "serve",
    "LineFeed": "serve",
    "ServeResult": "serve",
    "ServeStats": "serve",
    "SocketFeed": "serve",
    "SwapEvent": "serve",
    "TraceFeed": "serve",
    "format_packet_line": "serve",
    "parse_packet_line": "serve",
    "render_serve_report": "report",
    "PassManager": "passes",
    "PassResult": "passes",
    "Phase": "observations",
    "PhaseOutcome": "passes",
    "Profile": "profiler",
    "Profiler": "profiler",
    "SessionCounters": "session",
    "SessionStore": "store",
    "StoreCounters": "store",
    "resolve_store": "store",
    "default_store_root": "store",
    "resolve_workers": "fanout",
    "run_many": "fanout",
    "trace_fingerprint": "session",
    "instrument": "instrument",
    "optimize": "pipeline",
    "profile_program": "profiler",
    "recheck": "drift",
    "render_decision": "report",
    "render_report": "report",
    "run_seed": "seed_pipeline",
    "stage_table": "report",
    "summary_line": "report",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(
        importlib.import_module(f"repro.core.{module_name}"), name
    )
    globals()[name] = value  # cache for subsequent lookups
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
