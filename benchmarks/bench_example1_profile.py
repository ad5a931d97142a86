"""Ex. 1 hit-rate annotations (§2.1's percentages on the listing).

Paper (annotations on Example 1):
    IPv4 100%, ACL_UDP 8%, ACL_DHCP 14%, Sketch_1/2/Min 2%, DNS_Drop 1%.

The bench reproduces the percentages by profiling the firewall on the
enterprise trace, and times the profiling pass itself.
"""

import pytest

from repro.core.profiler import Profiler

PAPER_RATES = {
    "IPv4": 1.00,
    "ACL_UDP": 0.08,
    "ACL_DHCP": 0.14,
    "Sketch_1": 0.02,
    "Sketch_2": 0.02,
    "Sketch_Min": 0.02,
    "DNS_Drop": 0.01,
}


def test_example1_hit_rates(benchmark, firewall_inputs, record):
    program, config, trace, _target = firewall_inputs
    profiler = Profiler(program, config)

    profile = benchmark.pedantic(
        profiler.run, args=(trace,), rounds=1, iterations=1
    )

    lines = [
        "Ex. 1 per-table hit rates (paper annotation vs measured)",
        f"{'table':<12} {'paper':>8} {'measured':>10}",
    ]
    for table, paper in PAPER_RATES.items():
        measured = profile.hit_rate(table)
        lines.append(f"{table:<12} {paper:>8.0%} {measured:>10.2%}")
        assert measured == pytest.approx(paper, abs=0.011), table
    record("example1_hit_rates", "\n".join(lines))
