"""Shared fixtures.

Expensive artifacts (example programs, traces, full pipeline runs) are
session-scoped: they are deterministic, and every test treats them as
read-only.
"""

from __future__ import annotations

import os
from collections import OrderedDict

import pytest

import repro.sim.plan as plan_module
from repro.core import P2GO
from repro.core.profiler import Profiler
from repro.core.session import config_fingerprint, program_fingerprint
from repro.p4 import (
    Apply,
    Drop,
    If,
    ParamRef,
    ProgramBuilder,
    Seq,
    SetEgressPort,
    ValidExpr,
)
from repro.packets import headers as hdr
from repro.programs import (
    example_firewall,
    failure_detection,
    nat_gre,
    sourceguard,
)
from repro.sim import RuntimeConfig

#: Trace size used throughout the suite — big enough for the heavy DNS
#: flow to cross the 128-query threshold, small enough to keep the suite
#: fast.
TRACE_SIZE = 4000


@pytest.fixture(scope="session", autouse=True)
def _hermetic_store_base(tmp_path_factory):
    """CI's store-matrix leg runs the suite with ``$P2GO_STORE`` set so
    every pipeline construction routes through a real
    :class:`~repro.core.store.SessionStore`.  The suite must never touch
    the *actual* shared store, though — entries left by an earlier run
    would warm-start fixtures whose counters and per-phase perf tests
    assert on — so the whole pytest invocation is redirected to a fresh
    directory.  Session-scoped pipeline fixtures (which instantiate
    before any function-scoped fixture) land here."""
    if os.environ.get("P2GO_STORE"):
        base = tmp_path_factory.mktemp("p2go-store")
        original = os.environ["P2GO_STORE"]
        os.environ["P2GO_STORE"] = str(base)
        yield
        os.environ["P2GO_STORE"] = original
    else:
        yield


@pytest.fixture(autouse=True)
def _hermetic_store(tmp_path, monkeypatch):
    """One fresh store per test on the store-enabled leg: tests stay
    independent (no cross-test warm starts), while every P2GO/CLI run
    inside a test still exercises the disk tier end to end."""
    if os.environ.get("P2GO_STORE"):
        monkeypatch.setenv("P2GO_STORE", str(tmp_path / "p2go-store"))


def build_toy_program(name: str = "toy") -> "Program":
    """A small two-table router + ACL used by many unit tests."""
    b = ProgramBuilder(name)
    for t in (hdr.ETHERNET, hdr.IPV4, hdr.UDP):
        b.header_type(t.name, [(f.name, f.width) for f in t.fields])
    b.header("ethernet", "ethernet_t")
    b.header("ipv4", "ipv4_t")
    b.header("udp", "udp_t")
    b.parser_state(
        "start",
        extracts=["ethernet"],
        select="ethernet.etherType",
        transitions={hdr.ETHERTYPE_IPV4: "parse_ipv4"},
    )
    b.parser_state(
        "parse_ipv4",
        extracts=["ipv4"],
        select="ipv4.protocol",
        transitions={hdr.IPPROTO_UDP: "parse_udp"},
    )
    b.parser_state("parse_udp", extracts=["udp"])
    b.action("fwd", [SetEgressPort(ParamRef("port"))], parameters=["port"])
    b.action("deny", [Drop()])
    b.table(
        "fib",
        keys=[("ipv4.dstAddr", "lpm")],
        actions=["fwd"],
        size=64,
    )
    b.table(
        "acl",
        keys=[("udp.dstPort", "exact")],
        actions=["deny"],
        size=16,
    )
    b.ingress(
        Seq(
            [
                If(ValidExpr("ipv4"), Apply("fib")),
                If(ValidExpr("udp"), Apply("acl")),
            ]
        )
    )
    return b.build()


def toy_config() -> RuntimeConfig:
    cfg = RuntimeConfig()
    cfg.add_entry("fib", [(hdr.ip_to_int("10.0.0.0"), 8)], "fwd", [3])
    cfg.add_entry("fib", [(0, 0)], "fwd", [1])
    cfg.add_entry("acl", [53], "deny")
    return cfg


@pytest.fixture
def emissions(monkeypatch):
    """Each tail emitted from empty plan and source memos, as its
    (program fingerprint, config fingerprint, sink kind).  Both memos
    are process-wide LRUs that evict independently, so a test that
    reads either starts from fresh ones."""
    emitted = []
    function = plan_module._Emitter.function

    def counted(emitter, steps_only):
        emitted.append((
            program_fingerprint(emitter.program),
            config_fingerprint(emitter.config),
            steps_only,
        ))
        return function(emitter, steps_only)

    monkeypatch.setattr(plan_module, "_plans", OrderedDict())
    monkeypatch.setattr(plan_module, "_memo", OrderedDict())
    monkeypatch.setattr(plan_module._Emitter, "function", counted)
    return emitted


@pytest.fixture
def toy_program():
    return build_toy_program()


@pytest.fixture
def toy_runtime():
    return toy_config()


# ---------------------------------------------------------------------
# Example firewall (Ex. 1)


@pytest.fixture(scope="session")
def firewall_program():
    return example_firewall.build_program()


@pytest.fixture(scope="session")
def firewall_config():
    return example_firewall.runtime_config()


@pytest.fixture(scope="session")
def firewall_trace():
    return example_firewall.make_trace(TRACE_SIZE)


@pytest.fixture(scope="session")
def firewall_profile(firewall_program, firewall_config, firewall_trace):
    return Profiler(firewall_program, firewall_config).run(firewall_trace)


@pytest.fixture(scope="session")
def firewall_result(firewall_program, firewall_config, firewall_trace):
    """The full 4-phase P2GO run on Ex. 1 (Table 2's source of truth)."""
    return P2GO(
        firewall_program,
        firewall_config,
        firewall_trace,
        example_firewall.TARGET,
    ).run()


# ---------------------------------------------------------------------
# §4 scenarios


@pytest.fixture(scope="session")
def natgre_result():
    prog = nat_gre.build_program()
    return P2GO(
        prog, nat_gre.runtime_config(), nat_gre.make_trace(), nat_gre.TARGET
    ).run()


@pytest.fixture(scope="session")
def sourceguard_result():
    prog = sourceguard.build_program()
    return P2GO(
        prog,
        sourceguard.runtime_config(prog),
        sourceguard.make_trace(),
        sourceguard.TARGET,
    ).run()


@pytest.fixture(scope="session")
def failure_result():
    prog = failure_detection.build_program()
    return P2GO(
        prog,
        failure_detection.runtime_config(),
        failure_detection.make_trace(),
        failure_detection.TARGET,
    ).run()
