#!/usr/bin/env python3
"""Day-2 operations: catch the moment an optimization stops being safe.

P2GO's optimizations hold only while the profile stays representative
(§3.2's caveat, §6's dynamic-compilation agenda).  This example runs the
full optimizer on the firewall, then the two safety nets this
reproduction implements on top of the paper's core, both driven by the
decisions the run applied:

1. the **runtime dependency guard** (§3.2's "alternative approach"): for
   the dependency phase 2 removed, a shadow table in the source table's
   hit branch watches for packets that would have matched both tables
   and notifies the controller the instant one appears;
2. the **offline re-check** (§6): given a fresh trace, re-run the
   licence of every applied rewrite with its phase's own predicate and
   report the ones the new traffic breaks.

Run:
    python examples/operations_monitoring.py
"""

from repro import P2GO
from repro.core.drift import recheck
from repro.core.observations import Phase
from repro.core.report import render_decision
from repro.core.runtime_guard import add_dependency_guard, guard_notifications
from repro.packets.craft import udp_packet
from repro.programs import example_firewall as fw
from repro.sim import BehavioralSwitch
from repro.target import compile_program
from repro.traffic.generators import dns_stream


def main() -> None:
    program = fw.build_program()
    config = fw.runtime_config()
    trace = fw.make_trace(6_000)

    # ------------------------------------------------------------------
    print("Step 1: optimize the firewall (phases 2-4) ...")
    result = P2GO(program, config, trace, fw.TARGET).run()
    print(f"  stages: {result.stages_before} -> {result.stages_after}")
    for decision in result.applied:
        print(f"  {render_decision(decision).splitlines()[0]}")
    (removed,) = [
        d.candidate for d in result.applied
        if d.phase is Phase.REMOVE_DEPENDENCIES
    ]

    # ------------------------------------------------------------------
    print("\nStep 2: arm the runtime guard (§3.2's alternative) ...")
    guarded, guard_config, guard = add_dependency_guard(
        result.optimized_program, result.final_config,
        removed.src, removed.dst,
    )
    print(f"  guard table {guard.table!r} mirrors "
          f"{removed.dst!r}'s match keys in "
          f"{removed.src!r}'s hit branch")
    stages = compile_program(guarded, fw.TARGET).stages_used
    print(f"  pipeline with guard: {stages} stages")

    switch = BehavioralSwitch(guarded, guard_config)
    print("  replaying the optimization-time trace ...")
    results = switch.process_many(trace)
    print(f"  guard notifications: {len(guard_notifications(results))} "
          "(none — the profile's observation holds)")

    print("  injecting a violating packet (blocked UDP port on an "
          "untrusted DHCP ingress port) ...")
    violating = (
        udp_packet("10.0.0.66", "10.0.0.2", 4000,
                   fw.BLOCKED_UDP_PORTS[0]),
        fw.UNTRUSTED_INGRESS_PORTS[0],
    )
    results = switch.process_many([violating])
    hits = guard_notifications(results)
    print(f"  guard notifications: {len(hits)} -> the controller learns "
          "the removed dependency just manifested")

    # ------------------------------------------------------------------
    print("\nStep 3: re-check every applied rewrite on fresh traffic (§6) ...")
    calm = fw.make_trace(3_000, seed=77)
    flood = calm[:1500] + dns_stream(
        fw.HEAVY_DNS_SRC, fw.HEAVY_DNS_DST, 1500
    )
    for label, fresh in (("normal day", calm), ("DNS flood", flood)):
        violated = recheck(result, config, fresh)
        print(f"  {label}: {len(violated)} of {len(result.applied)} "
              "licence(s) broken")
        for decision in violated:
            for line in render_decision(decision).splitlines():
                print(f"    {line}")
    print("\n  -> time to re-run P2GO with a fresh trace (Fig. 2's loop).")


if __name__ == "__main__":
    main()
