"""§3.4's dynamic-programming segment selection, exercised end to end.

The paper: "P2GO finds this segment across all candidates using dynamic
programming."  On the telemetry program no single affordable segment can
free two stages, so the DP must combine the two cheapest disjoint
features — and must pick {dns_hh, ttl_probe} (~3.4% combined load) over
any pair involving the 5%-load SYN monitor.
"""

import pytest

from repro.core.phase_offload import (
    enumerate_candidates,
    evaluate_candidates,
    run_phase,
    select_combination,
)
from repro.core.session import OptimizationContext
from repro.programs import telemetry
from repro.target import compile_program


@pytest.fixture(scope="module")
def inputs():
    program = telemetry.build_program()
    config = telemetry.runtime_config()
    trace = telemetry.make_trace(3000)
    with OptimizationContext(
        program, config, trace, telemetry.TARGET
    ) as ctx:
        yield ctx, program, config


def test_dp_combination_selection(benchmark, inputs, record):
    ctx, program, config = inputs

    evaluated = evaluate_candidates(
        ctx, program, config, enumerate_candidates(program)
    )
    combo = benchmark.pedantic(
        select_combination,
        args=(evaluated,),
        kwargs={"min_stage_savings": 2, "max_redirect_fraction": 0.10},
        rounds=5,
        iterations=1,
    )

    lines = [
        "DP offload combination on the telemetry program",
        f"{'segment':<14} {'saves':>6} {'redirect':>9}",
    ]
    offloads = sorted(
        (d.candidate[0].segment.tables, d.stages_before - d.stages_after,
         d.candidate[0].redirect_fraction)
        for d in evaluated
    )
    for tables, saved, redirect in offloads:
        lines.append(
            f"{'+'.join(tables):<14} {saved:>6} {redirect:>8.2%}"
        )
    chosen = {t for d in combo for t in d.candidate[0].segment.tables}
    total = sum(d.candidate[0].redirect_fraction for d in combo)
    lines.append("")
    lines.append(
        f"DP pick for >=2 saved stages: {{{', '.join(sorted(chosen))}}} "
        f"at {total:.2%} total load"
    )
    record("dp_offload_combination", "\n".join(lines))

    assert chosen == {"dns_hh", "ttl_probe"}


def test_dp_combination_end_to_end(benchmark, inputs, record):
    ctx, program, config = inputs
    outcome = benchmark.pedantic(
        run_phase,
        args=(ctx, program, config),
        kwargs={"min_stage_savings": 2, "allow_combination": True},
        rounds=1,
        iterations=1,
    )
    stages = compile_program(outcome.program, telemetry.TARGET).stages_used
    offloads = outcome.accepted.candidate
    record(
        "dp_offload_end_to_end",
        "Telemetry: 5 stages -> "
        f"{stages} by offloading "
        f"{len(offloads)} segments "
        f"({', '.join(t for o in offloads for t in o.segment.tables)})",
    )
    assert stages == 3
    assert len(offloads) == 2
