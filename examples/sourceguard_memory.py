#!/usr/bin/env python3
"""Sourceguard: shave a Bloom-filter array to save a pipeline stage.

Reproduces Table 3's second row (5 -> 4 stages via memory reduction) and
exposes phase 3's machinery: the halving probes, the binary search for the
minimum sufficient reduction, and the profile-based verification that the
smaller filter still behaves identically on the trace.

Run:
    python examples/sourceguard_memory.py
"""

from repro import OptimizationContext, Profiler, compile_program
from repro.core.phase_memory import (
    find_candidates,
    minimal_reduction,
    run_phase,
)
from repro.programs import sourceguard as sg


def main() -> None:
    program = sg.build_program()
    config = sg.runtime_config(program)
    trace = sg.make_trace(4_000)
    target = sg.TARGET

    before = compile_program(program, target)
    print("Initial layout:")
    print(before.summary())
    print()

    profile = Profiler(program, config).profile(trace)
    print(f"profiled {profile.total_packets} packets; "
          f"{sum(1 for d in profile.decisions if d[1])} spoofed packets "
          "dropped by the source guard")
    print()

    # ------------------------------------------------------------------
    # Every phase-3 probe compiles and replays through one session.
    ctx = OptimizationContext(program, config, trace, target)
    print("Phase 3, step 1 — probe a 50% cut of every resource:")
    halved = find_candidates(ctx, program, profile)
    for c, stages in halved.items():
        print(f"  {c.kind.value:8s} {c.name:12s} "
              f"(hit rate {c.hit_rate:6.1%}): halving -> {stages} stages")

    # ------------------------------------------------------------------
    chosen = next(
        c for c, stages in halved.items() if stages < before.stages_used
    )
    print(f"\nPhase 3, step 2 — binary search on {chosen.name} "
          f"(lowest hit rate first of those saving a stage):")
    probes = ctx.counters.compile_calls
    minimal = minimal_reduction(ctx, program, chosen, before.stages_used)
    print(f"  {ctx.counters.compile_calls - probes} compiles between "
          f"{chosen.original_size // 2} and {chosen.original_size} cells")
    reduction = 1 - minimal / chosen.original_size
    print(f"  minimum sufficient reduction: {chosen.original_size} -> "
          f"{minimal} cells (-{reduction:.1%})")

    # ------------------------------------------------------------------
    print("\nPhase 3, step 3 — verify on the trace and apply:")
    outcome = run_phase(ctx, program, config, profile)
    ctx.close()
    accepted = outcome.accepted.candidate
    print(f"  accepted: {accepted.name} -> {accepted.new_size} "
          f"cells (-{accepted.reduction_fraction:.1%}), profile unchanged")
    after = compile_program(outcome.program, target)
    print()
    print("Final layout:")
    print(after.summary())
    print(f"\n{before.stages_used} -> {after.stages_used} stages "
          f"for a {accepted.reduction_fraction:.1%} trim of one register "
          "array (the paper reports -8.4% on Tofino).")


if __name__ == "__main__":
    main()
