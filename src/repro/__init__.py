"""P2GO: P4 Profile-Guided Optimizations — a full Python reproduction.

Reproduces Wintermeyer et al., *P2GO: P4 Profile-Guided Optimizations*
(HotNets 2020), including every substrate the prototype depends on: a P4
IR + textual DSL, a behavioural switch simulator, an RMT-style pipeline
compiler with dependency analysis and stage allocation, packet crafting
and pcap I/O, data-plane sketches, a software controller for offloaded
segments, and P5-style / static baselines.

Quickstart::

    from repro import P2GO, render_report
    from repro.programs import example_firewall as fw

    result = P2GO(
        fw.build_program(), fw.runtime_config(),
        fw.make_trace(), fw.TARGET,
    ).run()
    print(render_report(result))

Exports resolve lazily (PEP 562): importing :mod:`repro` does not import
every subsystem, so a broken or missing optional submodule only fails the
callers that actually use it — unrelated tests keep collecting.
"""

import importlib

__version__ = "1.0.0"

#: Public name -> defining submodule.  Resolved on first attribute access.
_EXPORTS = {
    "BehavioralSwitch": "repro.sim",
    "CompileResult": "repro.target",
    "FleetResult": "repro.core",
    "OptimizationContext": "repro.core",
    "P2GO": "repro.core",
    "PassManager": "repro.core",
    "P2GOResult": "repro.core",
    "SwitchRun": "repro.core",
    "build_fabric": "repro.core",
    "render_fleet_report": "repro.core",
    "run_fleet": "repro.core",
    "Profile": "repro.core",
    "Profiler": "repro.core",
    "Program": "repro.p4",
    "ProgramBuilder": "repro.p4",
    "ReproError": "repro.exceptions",
    "RuntimeConfig": "repro.sim",
    "TableEntry": "repro.sim",
    "TargetModel": "repro.target",
    "compile_program": "repro.target",
    "instrument": "repro.core",
    "optimize": "repro.core",
    "profile_program": "repro.core",
    "render_report": "repro.core",
    "stage_table": "repro.core",
    "summary_line": "repro.core",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value  # cache for subsequent lookups
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
