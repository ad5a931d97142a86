#!/usr/bin/env python3
"""Quickstart: optimize the paper's running example end to end.

Builds Ex. 1 (the stateful firewall), profiles it on an enterprise-style
trace, runs all four P2GO phases, and prints the optimization report —
reproducing the paper's Table 2 progression 8 -> 7 -> 6 -> 3 stages,
then compares the result against the profile-blind static compiler.

Run:
    python examples/quickstart.py
"""

from repro import P2GO, render_report
from repro.baselines.static_only import compile_static
from repro.programs import example_firewall as fw


def main() -> None:
    program = fw.build_program()
    config = fw.runtime_config()
    trace = fw.make_trace(10_000)

    print(f"program: {program.name} "
          f"({len(program.tables)} tables, "
          f"{len(program.registers)} register arrays)")
    print(f"trace:   {len(trace)} packets")
    print()

    result = P2GO(program, config, trace, fw.TARGET).run()
    print(render_report(result))

    static = compile_static(program, fw.TARGET)
    print()
    print(f"static baseline (no profile guidance): {static.stages} stages "
          f"vs {result.stages_after} optimized")


if __name__ == "__main__":
    main()
