"""Ablation: binary search vs linear probing for phase 3's minimum
reduction (§3.3: "binary search allows P2GO to find the minimum reduction
without a concrete description of the hardware").

Each probe is a full recompilation, so the search strategy directly
controls phase-3 latency.  Both strategies must land on the same size.
"""

import pytest

from repro.core.phase_dependencies import run_phase as dep_phase
from repro.core.phase_memory import (
    ResourceKind,
    find_candidates,
    minimal_reduction,
)
from repro.core.profiler import Profiler
from repro.core.session import OptimizationContext
from repro.target import compile_program


def linear_minimal_reduction(ctx, program, candidate, baseline_stages, step):
    """The linear-scan baseline: walk down from the original size, one
    compile per ``step``, until a stage is saved."""
    if candidate.kind is ResourceKind.TABLE:
        resize = program.with_table_size
    else:
        resize = program.with_register_size
    size = candidate.original_size - step
    while size > candidate.original_size // 2:
        stages = ctx.compile(resize(candidate.name, size)).stages_used
        if stages < baseline_stages:
            return size
        size -= step
    return candidate.original_size // 2


@pytest.fixture(scope="module")
def phase3_input(firewall_inputs):
    program, config, trace, target = firewall_inputs
    result = compile_program(program, target)
    profile = Profiler(program, config).run(trace)
    step = dep_phase(program, result, profile)
    program2 = step.program
    profile2 = Profiler(program2, config).run(trace)
    baseline = compile_program(program2, target).stages_used
    with OptimizationContext(program2, config, trace, target) as ctx:
        candidates = find_candidates(ctx, program2, profile2)
        row0 = next(c for c in candidates if c.name == "dns_cms_row0")
        yield ctx, program2, row0, baseline


def test_binary_vs_linear_probe_count(benchmark, phase3_input, record):
    ctx, program, candidate, baseline = phase3_input

    before = ctx.counters.compile_calls
    binary_answer = benchmark.pedantic(
        minimal_reduction,
        args=(ctx, program, candidate, baseline),
        rounds=1,
        iterations=1,
    )
    binary_probes = ctx.counters.compile_calls - before

    before = ctx.counters.compile_calls
    linear_answer = linear_minimal_reduction(
        ctx, program, candidate, baseline, step=4
    )
    linear_probes = ctx.counters.compile_calls - before

    lines = [
        "Ablation: phase-3 search strategy (each probe = one recompile)",
        f"{'strategy':<16} {'answer (cells)':>15} {'compiles':>9}",
        f"{'binary search':<16} {binary_answer:>15} "
        f"{binary_probes:>9}",
        f"{'linear (step 4)':<16} {linear_answer:>15} "
        f"{linear_probes:>9}",
    ]
    record("ablation_memory_search", "\n".join(lines))

    assert binary_answer == linear_answer
    assert binary_probes < linear_probes
