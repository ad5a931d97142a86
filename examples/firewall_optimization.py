#!/usr/bin/env python3
"""Ex. 1 in slow motion: profile, review, and emit optimized P4 source.

This example walks the paper's §2.2 workflow step by step:

1. Phase 1 — profile the firewall and print the per-table hit rates (the
   percentages annotated on Example 1) and the non-exclusive action sets
   (Table 1).
2. Phases 2-4 — run the optimizer with a *review hook* standing in for the
   programmer: it accepts the ACL dependency removal and the memory
   reduction, but rejects the controller offload (imagine an operator who
   wants DNS rate limiting to stay in the data plane).
3. Emit the optimized program as P4-DSL source, the artifact the real
   P2GO returns to the programmer.

Run:
    python examples/firewall_optimization.py
"""

from textwrap import indent

from repro import P2GO, Profiler
from repro.core.observations import Decision, Phase
from repro.core.report import render_decision, stage_table
from repro.p4.dsl import print_program
from repro.programs import example_firewall as fw


def main() -> None:
    program = fw.build_program()
    config = fw.runtime_config()
    trace = fw.make_trace(10_000)

    # ------------------------------------------------------------------
    print("=" * 70)
    print("Phase 1: profiling (the Ex. 1 annotations)")
    print("=" * 70)
    profile = Profiler(program, config).profile(trace)
    for table in program.tables_in_control_order():
        print(f"  apply({table})".ljust(30)
              + f"hit rate {profile.hit_rate(table):6.1%}")

    print("\nSets of non-exclusive actions (Table 1, by table):")
    seen = set()
    for group in profile.hit_action_sets():
        tables = tuple(sorted({pair[0] for pair in group}))
        if len(tables) > 1 and tables not in seen:
            seen.add(tables)
            print("  {" + ", ".join(tables) + "}")

    # ------------------------------------------------------------------
    print()
    print("=" * 70)
    print("Phases 2-4 with a programmer in the loop")
    print("=" * 70)

    def review(decision: Decision) -> bool:
        """The programmer vets each change (§2.2)."""
        keep = decision.phase is not Phase.OFFLOAD_CODE
        print(f"  [review] {'accept' if keep else 'REJECT'}:")
        print(indent(render_decision(decision), "    "))
        if not keep:
            print("    (operator policy: DNS limiting stays in the data "
                  "plane)")
        return keep

    result = P2GO(
        program, config, trace, fw.TARGET, review_hook=review
    ).run()

    print()
    print(stage_table(result))
    print(f"\nfinal: {result.stages_before} -> {result.stages_after} stages "
          "(offload vetoed, so the sketch stays on-switch)")

    # ------------------------------------------------------------------
    print()
    print("=" * 70)
    print("Optimized P4 source returned to the programmer (excerpt)")
    print("=" * 70)
    source = print_program(result.optimized_program)
    in_control = False
    for line in source.splitlines():
        if line.startswith("control ingress"):
            in_control = True
        if in_control:
            print(line)


if __name__ == "__main__":
    main()
