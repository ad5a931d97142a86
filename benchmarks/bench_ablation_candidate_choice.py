"""Ablation: phase 3's lowest-hit-rate-first candidate policy (§3.3:
"P2GO selects the one with the lowest hit rate, to minimize the risk of
impacting the program's behavior").

On Ex. 1 the policy is actually *costly* in wall-clock (it tries the two
sketch rows first and both verifications fail on the engineered
collisions) but it is the risk-minimizing order the paper argues for.
The ablation quantifies the trade: verification attempts and rejected
resizes per policy.
"""

import pytest

from repro.core.observations import Reason
from repro.core.phase_dependencies import run_phase as dep_phase
from repro.core.phase_memory import run_phase as mem_phase
from repro.core.profiler import Profiler
from repro.core.session import OptimizationContext
from repro.target import compile_program


@pytest.fixture(scope="module")
def phase3_state(firewall_inputs):
    program, config, trace, target = firewall_inputs
    result = compile_program(program, target)
    profile = Profiler(program, config).profile(trace)
    step = dep_phase(program, result, profile)
    program2 = step.program
    profile2 = Profiler(program2, config).profile(trace)
    with OptimizationContext(program2, config, trace, target) as ctx:
        yield ctx, program2, config, profile2


def test_candidate_order_policies(benchmark, phase3_state, record):
    ctx, program, config, profile = phase3_state

    lowest_first = benchmark.pedantic(
        mem_phase,
        args=(ctx, program, config, profile),
        rounds=1,
        iterations=1,
    )
    highest_first = mem_phase(
        ctx,
        program,
        config,
        profile,
        candidate_order=lambda cs: sorted(cs, key=lambda c: -c.hit_rate),
    )

    def accepted(outcome):
        return outcome.accepted.candidate.name

    def rejected_tries(outcome):
        return sum(
            d.reason is Reason.BEHAVIOUR_CHANGED for d in outcome.decisions
        )

    lines = [
        "Ablation: phase-3 candidate order",
        f"{'policy':<22} {'accepted':<22} {'rejected tries':>14}",
        f"{'lowest-hit-rate first':<22} "
        f"{accepted(lowest_first):<22} "
        f"{rejected_tries(lowest_first):>14}",
        f"{'highest-hit-rate first':<22} "
        f"{accepted(highest_first):<22} "
        f"{rejected_tries(highest_first):>14}",
        "",
        "Both policies converge on the IPv4 resize here, but only because"
        " verification catches the sketch collisions; with a less"
        " representative trace, highest-first would have shipped a"
        " behaviour-changing resize of a 100%-hit-rate table.",
    ]
    record("ablation_candidate_choice", "\n".join(lines))

    assert accepted(lowest_first) == "IPv4"
    assert accepted(highest_first) == "IPv4"
    assert rejected_tries(lowest_first) == 2  # both sketch rows tried
    assert rejected_tries(highest_first) == 0
