"""Property tests of the core soundness claims: P2GO's rewrites preserve
per-packet behaviour on *arbitrary* traffic, not just the profiling trace
(the rewrites are constructed to be trace-safe; these tests probe how far
beyond the trace that safety extends).

Phase 2's rewrite (apply-on-miss) is semantics-preserving for every
packet that does not match both tables; the generators below produce
arbitrary mixes of the firewall's traffic classes where the disjointness
of rule spaces (blocked ports vs DHCP ports) guarantees that, so the
decisions must agree packet-for-packet.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.phase_dependencies import run_phase as dep_phase
from repro.core.profiler import Profiler
from repro.packets.craft import (
    dhcp_packet,
    dns_query,
    plain_ipv4_packet,
    tcp_packet,
    udp_packet,
)
from repro.programs import example_firewall as fw
from repro.sim import BehavioralSwitch
from repro.target import compile_program

# ----------------------------------------------------------------------
# Packet generators covering the firewall's traffic classes.

ips = st.integers(min_value=1, max_value=0xDFFFFFFF)
ports = st.integers(min_value=1, max_value=65535).filter(
    lambda p: p not in (53, 67, 68)
)


@st.composite
def firewall_packets(draw):
    kind = draw(
        st.sampled_from(["udp", "blocked", "dns", "dhcp", "tcp", "plain"])
    )
    src, dst = draw(ips), draw(ips)
    if kind == "udp":
        return (udp_packet(src, dst, draw(ports), draw(ports)), 0)
    if kind == "blocked":
        return (
            udp_packet(src, dst, draw(ports),
                       draw(st.sampled_from(fw.BLOCKED_UDP_PORTS))),
            0,
        )
    if kind == "dns":
        return (dns_query(src, dst, draw(st.integers(0, 0xFFFF))), 0)
    if kind == "dhcp":
        return (
            dhcp_packet(src, xid=draw(st.integers(0, 0xFFFFFFFF))),
            draw(st.integers(0, 8)),
        )
    if kind == "tcp":
        return (
            tcp_packet(src, dst, draw(ports), draw(ports),
                       seq=draw(st.integers(0, 0xFFFFFFFF))),
            0,
        )
    return (plain_ipv4_packet(src, dst), 0)


@pytest.fixture(scope="module")
def rewritten_program(firewall_program, firewall_config, firewall_trace):
    compiled = compile_program(firewall_program, fw.TARGET)
    profile = Profiler(firewall_program, firewall_config).run(
        firewall_trace
    )
    step = dep_phase(firewall_program, compiled, profile)
    assert step.changed
    return step.program


@settings(max_examples=30, deadline=None)
@given(st.lists(firewall_packets(), min_size=1, max_size=40))
def test_phase2_rewrite_preserves_arbitrary_traffic(
    rewritten_program, firewall_program, firewall_config, packets
):
    """The ACL rewrite agrees with the original on arbitrary mixes: the
    installed blocked-port rules never cover DHCP ports, so no generated
    packet can match both ACLs."""
    original = BehavioralSwitch(firewall_program, firewall_config)
    rewritten = BehavioralSwitch(rewritten_program, firewall_config)
    for data, port in packets:
        a = original.process(data, port)
        b = rewritten.process(data, port)
        assert a.forwarding_decision() == b.forwarding_decision()


@settings(max_examples=30, deadline=None)
@given(st.lists(firewall_packets(), min_size=1, max_size=40))
def test_phase3_fib_resize_preserves_arbitrary_traffic(
    firewall_program, firewall_config, packets
):
    """Shrinking the FIB's *capacity* (192 -> 128 entries) cannot change
    matching as long as the installed rules still fit."""
    resized = firewall_program.with_table_size("IPv4", 128)
    original = BehavioralSwitch(firewall_program, firewall_config)
    smaller = BehavioralSwitch(resized, firewall_config)
    for data, port in packets:
        a = original.process(data, port)
        b = smaller.process(data, port)
        assert a.forwarding_decision() == b.forwarding_decision()


@settings(max_examples=20, deadline=None)
@given(st.lists(firewall_packets(), min_size=1, max_size=30))
def test_instrumentation_transparent_for_arbitrary_traffic(
    firewall_program, firewall_config, packets
):
    from repro.core.instrument import instrument

    instrumented = instrument(firewall_program)
    plain = BehavioralSwitch(firewall_program, firewall_config)
    marked = BehavioralSwitch(
        instrumented.program, instrumented.adapt_config(firewall_config)
    )
    for data, port in packets:
        a = plain.process(data, port)
        b = marked.process(data, port)
        assert a.forwarding_decision() == b.forwarding_decision()


@settings(max_examples=20, deadline=None)
@given(st.lists(firewall_packets(), min_size=1, max_size=30))
def test_whole_stack_deterministic(
    firewall_program, firewall_config, packets
):
    """Replaying the same packets through a fresh switch yields identical
    decisions — the determinism phase 3's profile comparison rests on."""
    first = BehavioralSwitch(firewall_program, firewall_config)
    second = BehavioralSwitch(firewall_program, firewall_config)
    for data, port in packets:
        a = first.process(data, port)
        b = second.process(data, port)
        assert a.forwarding_decision() == b.forwarding_decision()
        assert a.output_bytes == b.output_bytes
        assert a.steps == b.steps
