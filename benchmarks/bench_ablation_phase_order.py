"""Ablation: phase ordering (§2.2, phase 4's rationale).

The paper: "P2GO reserves code offloading as the last phase to allow
optimizing the data plane first.  For example, if this was the first
phase, P2GO might have offloaded both ACLs, originally requiring two
stages."

We run Ex. 1 three ways:

* the paper's order (deps, memory, offload) — reproduces Table 2's 3
  stages;
* offload first (offload, deps, memory);
* the paper's order *re-run once* on its own output (§3.2: "the
  programmer can re-run P2GO").

Findings on this example: the controller-load-minimizing selection always
picks the tiny DNS segment (never the ACLs), so offload-first wastes
nothing here and — by unlocking a further dependency removal
(ACL_UDP → To_Ctl) — reaches 2 stages in a single run.  The paper-order
pipeline reaches the same 2-stage fixed point after its documented
re-run.  Controller load is identical in all three, so ordering changes
convergence speed, not the fixed point.
"""

import pytest

from repro.core import P2GO


def run_with_order(inputs, phases, program=None, config=None):
    prog, cfg, trace, target = inputs
    return P2GO(
        program if program is not None else prog,
        config if config is not None else cfg,
        trace,
        target,
        phases=phases,
        max_redirect_fraction=0.25,
    ).run()


def test_offload_last_vs_first(benchmark, firewall_inputs, record):
    paper_order = benchmark.pedantic(
        run_with_order,
        args=(firewall_inputs, (2, 3, 4)),
        rounds=1,
        iterations=1,
    )
    offload_first = run_with_order(firewall_inputs, (4, 2, 3))
    rerun = run_with_order(
        firewall_inputs,
        (2, 3, 4),
        program=paper_order.optimized_program,
        config=paper_order.final_config,
    )

    rows = [
        ("deps,mem,offload", paper_order),
        ("offload,deps,mem", offload_first),
        ("paper order, re-run", rerun),
    ]
    lines = [
        "Ablation: phase ordering on Ex. 1 (load budget 25%)",
        f"{'order':<22} {'stage history':<22} {'final':>6} "
        f"{'ctl load':>9}",
    ]
    for label, result in rows:
        lines.append(
            f"{label:<22} "
            f"{'->'.join(str(o.stages) for o in result.outcomes):<22} "
            f"{result.stages_after:>6} "
            f"{result.controller_load:>9.2%}"
        )
    lines.append("")
    lines.append(
        "Both orderings converge to the same 2-stage fixed point at "
        "identical controller load; the paper's order needs the §3.2 "
        "re-run to get there, offload-first gets there in one pass on "
        "this example (its risk — wasted offloads — is neutralized by "
        "the load-minimizing segment selection)."
    )
    record("ablation_phase_order", "\n".join(lines))

    # Table 2 is the single-run paper-order result.
    assert [o.stages for o in paper_order.outcomes] == [8, 7, 6, 3]
    # Neither ordering redirects more traffic than the other.
    assert paper_order.controller_load == offload_first.controller_load
    # The orderings share a fixed point.
    assert rerun.stages_after == offload_first.stages_after == 2
