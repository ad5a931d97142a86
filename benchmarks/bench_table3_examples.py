"""Table 3 — the preliminary evaluation's three scenarios.

Paper:
    NAT & GRE          Removing Dependencies   4 -> 3
    Sourceguard        Reducing Memory         5 -> 4  (one array -8.4%)
    Failure Detection  Offloading Code         4 -> 2

Each scenario is optimized end to end; the relevant phase must be the one
that produces the saving.
"""

import pytest

from repro.core import P2GO
from repro.core.observations import Phase
from repro.programs import failure_detection, nat_gre, sourceguard

PAPER_ROWS = {
    "nat_gre": ("Removing Dependencies", 4, 3),
    "sourceguard": ("Reducing Memory", 5, 4),
    "failure_detection": ("Offloading Code", 4, 2),
}

PHASE_BY_NAME = {
    "Removing Dependencies": Phase.REMOVE_DEPENDENCIES,
    "Reducing Memory": Phase.REDUCE_MEMORY,
    "Offloading Code": Phase.OFFLOAD_CODE,
}


def _run(module, **config_kwargs):
    program = module.build_program()
    config = (
        module.runtime_config(program)
        if module is sourceguard
        else module.runtime_config()
    )
    trace = module.make_trace()
    return P2GO(program, config, trace, module.TARGET).run()


@pytest.fixture(scope="module")
def all_results():
    return {
        "nat_gre": _run(nat_gre),
        "sourceguard": _run(sourceguard),
        "failure_detection": _run(failure_detection),
    }


def test_table3_all_examples(benchmark, all_results, record):
    # Time one representative optimization run (NAT & GRE).
    benchmark.pedantic(
        lambda: _run(nat_gre), rounds=1, iterations=1
    )

    lines = [
        "Table 3: stages before/after per example (paper vs measured)",
        f"{'example':<18} {'optimization':<24} "
        f"{'paper':>9} {'measured':>9}",
    ]
    for name, (optimization, before, after) in PAPER_ROWS.items():
        result = all_results[name]
        lines.append(
            f"{name:<18} {optimization:<24} "
            f"{before}->{after:<6} {result.stages_before}->"
            f"{result.stages_after}"
        )
        assert result.stages_before == before, name
        assert result.stages_after == after, name

        # The saving must come from the designated phase.
        saving_phase = PHASE_BY_NAME[optimization]
        per_phase = {
            o.phase: o.stages for o in result.outcomes
        }
        ordered = [o.stages for o in result.outcomes]
        drop_index = next(
            i for i in range(1, len(ordered))
            if ordered[i] < ordered[i - 1]
        )
        assert result.outcomes[drop_index].phase is saving_phase, name
    record("table3_examples", "\n".join(lines))


def test_table3_sourceguard_reduction_fraction(benchmark, all_results,
                                               record):
    """The paper trims a single register array by 8.4%; our target's
    block geometry lands at 6.2% — same single-digit shape."""
    result = benchmark.pedantic(
        lambda: all_results["sourceguard"], rounds=1, iterations=1
    )
    resize = next(
        d.candidate
        for d in result.applied
        if d.phase is Phase.REDUCE_MEMORY
    )
    fraction = resize.reduction_fraction
    record(
        "table3_sourceguard_reduction",
        "Sourceguard single-array reduction: paper -8.4%, measured "
        f"-{fraction:.1%}",
    )
    assert 0.0 < fraction < 0.10


def test_table3_failure_detection_controller_load(benchmark, all_results,
                                                  record):
    """§4: offloading must not overload the controller — the CMS segment
    is hit by only the retransmission share of traffic."""
    result = benchmark.pedantic(
        lambda: all_results["failure_detection"], rounds=1, iterations=1
    )
    load = result.offloaded.redirect_fraction
    record(
        "table3_failure_detection_load",
        f"Failure-detection controller load: {load:.2%} of trace "
        "redirected (paper: 'the tables are rarely matched')",
    )
    assert load < 0.05
