#!/usr/bin/env python3
"""Day-2 operations: catch the moment an optimization stops being safe.

P2GO's optimizations hold only while the profile stays representative
(§3.2's caveat, §6's dynamic-compilation agenda).  This example runs the
two safety nets this reproduction implements on top of the paper's core:

1. the **runtime dependency guard** (§3.2's "alternative approach"): after
   the ACL_UDP -> ACL_DHCP dependency is removed, a shadow table in
   ACL_UDP's hit branch watches for packets that would have matched both
   ACLs and notifies the controller the instant one appears;
2. the **drift detector** (§6): given a fresh trace, re-check every
   optimization-time observation offline and report the violated ones.

Run:
    python examples/operations_monitoring.py
"""

from repro.core import Profiler
from repro.core.drift import DriftDetector
from repro.core.phase_dependencies import run_phase as remove_dependencies
from repro.core.runtime_guard import (
    add_dependency_guard,
    guard_notifications,
    mirror_guard_entries,
)
from repro.packets.craft import udp_packet
from repro.programs import example_firewall as fw
from repro.sim import BehavioralSwitch
from repro.target import compile_program


def main() -> None:
    program = fw.build_program()
    config = fw.runtime_config()
    trace = fw.make_trace(6_000)

    # ------------------------------------------------------------------
    print("Step 1: remove the ACL dependency (phase 2) ...")
    compiled = compile_program(program, fw.TARGET)
    profile = Profiler(program, config).profile(trace)
    step = remove_dependencies(program, compiled, profile)
    removed = step.accepted.candidate
    print(f"  removed: {removed.src} -> {removed.dst}")

    # ------------------------------------------------------------------
    print("\nStep 2: arm the runtime guard (§3.2's alternative) ...")
    guarded, guard = add_dependency_guard(
        step.program, removed.src, removed.dst
    )
    guard_config = mirror_guard_entries(config, guard)
    print(f"  guard table {guard.table!r} mirrors "
          f"{removed.dst!r}'s match keys in "
          f"{removed.src!r}'s hit branch")
    stages = compile_program(guarded, fw.TARGET).stages_used
    print(f"  pipeline with guard: {stages} stages "
          "(the guard shares the ACLs' stage)")

    switch = BehavioralSwitch(guarded, guard_config)
    print("  replaying the optimization-time trace ...")
    results = switch.process_trace(trace)
    print(f"  guard notifications: {len(guard_notifications(results))} "
          "(none — the profile's observation holds)")

    print("  injecting a violating packet (blocked UDP port on an "
          "untrusted DHCP ingress port) ...")
    violating = (
        udp_packet("10.0.0.66", "10.0.0.2", 4000,
                   fw.BLOCKED_UDP_PORTS[0]),
        fw.UNTRUSTED_INGRESS_PORTS[0],
    )
    results = switch.process_trace([violating])
    hits = guard_notifications(results)
    print(f"  guard notifications: {len(hits)} -> the controller learns "
          "the removed dependency just manifested")

    # ------------------------------------------------------------------
    print("\nStep 3: offline drift detection (§6) on fresh traffic ...")
    detector = DriftDetector(
        program,
        config,
        profile,
        removed_dependencies=[removed],
        offload_tables=("Sketch_1", "Sketch_2", "Sketch_Min", "DNS_Drop"),
        offload_budget=0.10,
    )

    calm = fw.make_trace(3_000, seed=77)
    report = detector.check(calm)
    print(f"  normal day:  {report.render()}")

    from repro.traffic.generators import dns_stream

    flood = calm[:1500] + dns_stream(
        fw.HEAVY_DNS_SRC, fw.HEAVY_DNS_DST, 1500
    )
    report = detector.check(flood)
    print("  DNS flood:")
    for line in report.render().splitlines():
        print(f"    {line}")
    print("\n  -> time to re-run P2GO with a fresh trace (Fig. 2's loop).")


if __name__ == "__main__":
    main()
