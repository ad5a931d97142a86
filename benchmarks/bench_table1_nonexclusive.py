"""Table 1 — sets of non-exclusive actions observed during profiling.

Paper's rows (by table, action names omitted there too):
    {IPv4, ACL_UDP}
    {IPv4, ACL_DHCP}
    {IPv4, Sketch_1, Sketch_2, Sketch_Min}
    {IPv4, Sketch_1, Sketch_2, Sketch_Min, DNS_Drop}

The crucial *absence*: no set contains both ACL_UDP and ACL_DHCP — the
observation that licenses phase 2's dependency removal.
"""

import pytest

from repro.core.profiler import Profiler

PAPER_SETS = [
    frozenset({"IPv4", "ACL_UDP"}),
    frozenset({"IPv4", "ACL_DHCP"}),
    frozenset({"IPv4", "Sketch_1", "Sketch_2", "Sketch_Min"}),
    frozenset({"IPv4", "Sketch_1", "Sketch_2", "Sketch_Min", "DNS_Drop"}),
]


def test_table1_nonexclusive_sets(benchmark, firewall_inputs, record):
    program, config, trace, _target = firewall_inputs

    profile = benchmark.pedantic(
        Profiler(program, config).run, args=(trace,),
        rounds=1, iterations=1,
    )

    observed = {
        frozenset(pair[0] for pair in group)
        for group in profile.hit_action_sets()
    }
    multi = sorted(
        (s for s in observed if len(s) > 1), key=lambda s: (len(s), sorted(s))
    )
    lines = ["Table 1: sets of non-exclusive actions (by table)"]
    for group in multi:
        marker = "OK " if group in PAPER_SETS else "   "
        lines.append("  " + marker + "{" + ", ".join(sorted(group)) + "}")
    record("table1_nonexclusive_sets", "\n".join(lines))

    for expected in PAPER_SETS:
        assert expected in observed, expected

    # The decisive absence (§2.2 phase 2).
    assert not any(
        {"ACL_UDP", "ACL_DHCP"} <= group for group in observed
    )
