"""§4's runtime claim: "P2GO's runtime for profiling and analysis (i.e.,
excluding compilation time) is in the order of tens of seconds."

The bench times the profiling pass across trace sizes and the analysis
(dependency graph + candidate search) separately from compilation, then
checks the total stays within tens of seconds at the paper-scale trace.
"""

import time

import pytest

from repro.core.phase_dependencies import find_removal_candidates
from repro.core.profiler import Profiler
from repro.programs import example_firewall as fw
from repro.target import compile_program


def test_simulator_throughput(benchmark, firewall_inputs):
    """Raw behavioural-simulation speed (packets/second) — the substrate
    cost under all profiling numbers.  Printed, not recorded: a
    wall-clock number in ``benchmarks/results/`` would differ on every
    run, and CI diffs that directory."""
    from repro.sim import BehavioralSwitch

    program, config, trace, _target = firewall_inputs
    switch = BehavioralSwitch(program, config)
    chunk = trace[:2000]

    seconds = []  # one per round; a single round under --benchmark-disable

    def replay():
        switch.reset_state()
        t0 = time.perf_counter()
        results = switch.process_many(chunk)
        seconds.append(time.perf_counter() - t0)
        return results

    results = benchmark.pedantic(replay, rounds=3, iterations=1)
    assert len(results) == len(chunk)
    pps = len(chunk) * len(seconds) / sum(seconds)
    print(
        f"\nBehavioural simulator: {pps:,.0f} packets/s on the Ex. 1 "
        f"program ({len(program.tables)} tables)"
    )


@pytest.mark.parametrize("size", [1000, 5000, 10000])
def test_profiling_runtime_scales_linearly(benchmark, size):
    program = fw.build_program()
    config = fw.runtime_config()
    trace = fw.make_trace(size)
    profiler = Profiler(program, config)

    profile = benchmark.pedantic(
        profiler.profile, args=(trace,), rounds=1, iterations=1
    )
    assert profile.total_packets == len(trace)


def test_profiling_and_analysis_tens_of_seconds(benchmark, firewall_inputs):
    program, config, trace, target = firewall_inputs

    t0 = time.perf_counter()
    profile = benchmark.pedantic(
        Profiler(program, config).profile, args=(trace,),
        rounds=1, iterations=1,
    )
    profiling_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    result = compile_program(program, target)
    compile_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    candidates = find_removal_candidates(result, profile)
    analysis_seconds = time.perf_counter() - t0

    lines = [
        "Profiling & analysis runtime (paper: tens of seconds, excl. "
        "compilation)",
        f"  trace size:           {len(trace)} packets",
        f"  profiling:            {profiling_seconds:6.2f} s",
        f"  dependency analysis:  {analysis_seconds:6.2f} s",
        f"  (compilation:         {compile_seconds:6.2f} s)",
        f"  candidates found:     {len(candidates)}",
    ]
    print("\n" + "\n".join(lines))  # wall-clock numbers: not recorded

    assert profiling_seconds + analysis_seconds < 60.0
    assert candidates
