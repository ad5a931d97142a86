"""Tests for the paper's extension features implemented here:

* §3.2's runtime dependency-violation guard, and
* §6's offline re-check of a run's applied rewrites on fresh traffic.
"""

import pkgutil
import random
from dataclasses import FrozenInstanceError, replace

import pytest

import repro.programs
from repro.core.drift import recheck
from repro.core.fleet import family_inputs
from repro.core.observations import Decision, Phase, Reason, Verdict
from repro.core.phase_dependencies import run_phase as dep_phase
from repro.core.phase_offload import Offload, SegmentCandidate
from repro.core.pipeline import P2GO
from repro.core.profiler import Profiler
from repro.core.report import render_decision
from repro.core.runtime_guard import (
    GUARD_REASON,
    add_dependency_guard,
    guard_notifications,
)
from repro.exceptions import OptimizationError
from repro.p4.control import Apply, Seq
from repro.packets.craft import dhcp_packet, udp_packet
from repro.packets.headers import ip_to_int
from repro.programs import example_firewall, sourceguard
from repro.sim import BehavioralSwitch
from repro.target import compile_program
from repro.traffic.generators import dns_stream

FAMILIES = sorted(
    module.name
    for module in pkgutil.iter_modules(repro.programs.__path__)
    if module.name != "common"
)

#: A normal day, then the same traffic with its second half a DNS flood
#: (the mix ``examples/operations_monitoring.py`` re-checks).
CALM = example_firewall.make_trace(3000, seed=77)
DNS_FLOOD = CALM[:1500] + dns_stream(
    example_firewall.HEAVY_DNS_SRC, example_firewall.HEAVY_DNS_DST, 1500
)


@pytest.fixture(scope="module")
def rewritten(firewall_program, firewall_config, firewall_trace):
    result = compile_program(firewall_program, example_firewall.TARGET)
    profile = Profiler(firewall_program, firewall_config).run(
        firewall_trace
    )
    step = dep_phase(firewall_program, result, profile)
    assert step.changed
    return step.program, step.accepted.candidate


class TestRuntimeGuard:
    def test_guard_installs(self, rewritten, firewall_config):
        program, dep = rewritten
        guarded, config, guard = add_dependency_guard(
            program, firewall_config, dep.src, dep.dst
        )
        assert guard.table in guarded.tables
        # Guard mirrors ACL_DHCP's keys and, in the returned config, its
        # entries; the config passed in is left as it was.
        assert (
            guarded.tables[guard.table].keys
            == guarded.tables["ACL_DHCP"].keys
        )
        mirrored = config.entries_for(guard.table)
        assert [e.match for e in mirrored] == [
            e.match for e in firewall_config.entries_for("ACL_DHCP")
        ]
        assert {e.action for e in mirrored} == {guard.action}
        assert firewall_config.entries_for(guard.table) == []
        with pytest.raises(FrozenInstanceError):
            guard.table = "elsewhere"

    def test_guard_fires_on_violating_packet(self, rewritten,
                                             firewall_config):
        """A packet that hits ACL_UDP *and* arrives on an untrusted DHCP
        ingress port is exactly the packet the removed dependency would
        have mattered for — the guard reports it."""
        program, dep = rewritten
        guarded, config, guard = add_dependency_guard(
            program, firewall_config, dep.src, dep.dst
        )
        switch = BehavioralSwitch(guarded, config)
        violating = (
            udp_packet("10.0.0.1", "10.0.0.2", 4000, 137),  # blocked port
            example_firewall.UNTRUSTED_INGRESS_PORTS[0],
        )
        results = switch.process_many([violating])
        assert guard_notifications(results) == [0]
        assert results[0].controller_reason == GUARD_REASON

    def test_guard_silent_on_normal_traffic(self, rewritten,
                                            firewall_config,
                                            firewall_trace):
        program, dep = rewritten
        guarded, config, guard = add_dependency_guard(
            program, firewall_config, dep.src, dep.dst
        )
        switch = BehavioralSwitch(guarded, config)
        results = switch.process_many(firewall_trace[:800])
        assert guard_notifications(results) == []

    def test_guard_requires_rewrite_shape(self, firewall_program,
                                          firewall_config):
        with pytest.raises(OptimizationError):
            add_dependency_guard(
                firewall_program, firewall_config, "ACL_UDP", "ACL_DHCP"
            )

    def test_guard_requires_keyed_table(self, rewritten, firewall_config):
        program, _dep = rewritten
        with pytest.raises(OptimizationError):
            add_dependency_guard(
                program, firewall_config, "ACL_UDP", "ghost"
            )


def summary(violated):
    return [(d.phase, d.verdict, d.reason) for d in violated]


class TestDriftDetection:
    """``recheck`` re-runs each applied decision's licence on a fresh
    trace with the predicate its phase used."""

    def test_no_drift_on_similar_traffic(
        self, firewall_result, firewall_config
    ):
        assert len(firewall_result.applied) == 3
        assert recheck(firewall_result, firewall_config, CALM) == ()

    def test_dependency_drift_detected(
        self, firewall_result, firewall_config
    ):
        """Install-time drift: the operator blocks UDP port 68, so DHCP
        packets on an untrusted port now hit ACL_UDP while ACL_DHCP is
        applied — the removed dependency's licence breaks."""
        config = firewall_config.clone()
        config.add_entry("ACL_UDP", [68], "acl_udp_drop")
        fresh = [
            (dhcp_packet("172.16.0.1"),
             example_firewall.UNTRUSTED_INGRESS_PORTS[0])
        ] * 10
        (violated,) = recheck(firewall_result, config, fresh)
        assert violated.phase is Phase.REMOVE_DEPENDENCIES
        assert violated.verdict is Verdict.VIOLATED
        assert violated.reason in (Reason.MANIFESTS, Reason.HIT_COAPPLIED)
        assert violated.candidate == firewall_result.applied[0].candidate

    def test_controller_overload_detected(
        self, firewall_result, firewall_config
    ):
        violated = recheck(firewall_result, firewall_config, DNS_FLOOD)
        assert summary(violated) == [
            (Phase.OFFLOAD_CODE, Verdict.VIOLATED, Reason.OVER_BUDGET)
        ]
        (applied,) = [
            d for d in firewall_result.applied
            if d.phase is Phase.OFFLOAD_CODE
        ]
        # Everything but the verdict, reason and evidence is the
        # applied decision's.
        assert replace(
            violated[0], verdict=Verdict.ACCEPTED, reason=None, evidence=()
        ) == applied
        assert violated[0].evidence == (
            "fresh traffic reaches the segment at 52.7% (budget 10.0%)",
        )
        # The budget is the one option.
        assert recheck(
            firewall_result, firewall_config, DNS_FLOOD,
            max_redirect_fraction=0.6,
        ) == ()

    def test_controller_overload_counts_union_of_disjoint_tables(
        self, firewall_result, firewall_config
    ):
        """A segment of two tables each traversed by 30% *disjoint*
        traffic must trip a 50% budget: redirected traffic is the
        union of packets reaching any offloaded table (a per-table
        maximum sees 30% twice)."""
        from repro.traffic.generators import (
            dhcp_stream,
            interleave,
            tcp_background,
        )

        rng = random.Random(7)
        dhcp = dhcp_stream(
            90, rng,
            ingress_port=example_firewall.UNTRUSTED_INGRESS_PORTS[0],
        )
        dns = dns_stream(
            example_firewall.HEAVY_DNS_SRC,
            example_firewall.HEAVY_DNS_DST,
            90,
        )
        fresh = interleave(rng, dhcp, dns, tcp_background(120, rng))

        def offloading(*tables):
            segment = SegmentCandidate(
                Seq([Apply(t) for t in tables]), tables, None
            )
            decision = Decision(
                Phase.OFFLOAD_CODE, Verdict.ACCEPTED,
                Offload(segment, "To_Ctl", 0.0),
            )
            return replace(firewall_result, decisions=(decision,))

        # The premise: disjoint 30% slices, each alone under budget.
        for table in ("ACL_DHCP", "Sketch_1"):
            assert recheck(
                offloading(table), firewall_config, fresh,
                max_redirect_fraction=0.5,
            ) == ()
        violated = recheck(
            offloading("ACL_DHCP", "Sketch_1"), firewall_config, fresh,
            max_redirect_fraction=0.5,
        )
        assert summary(violated) == [
            (Phase.OFFLOAD_CODE, Verdict.VIOLATED, Reason.OVER_BUDGET)
        ]
        assert violated[0].evidence == (
            "fresh traffic reaches the segment at 60.0% (budget 50.0%)",
        )

    def test_clean_report_renders(self, firewall_result, firewall_config):
        """A clean re-check is the empty tuple; a broken licence renders
        through the one decision renderer, under its applied title and
        with its reason's text."""
        assert recheck(firewall_result, firewall_config, CALM) == ()
        (violated,) = recheck(firewall_result, firewall_config, DNS_FLOOD)
        text = render_decision(violated)
        assert text.startswith(
            "[phase 4:offload_code] VIOLATED: offloaded segment "
            "{Sketch_1, Sketch_2, Sketch_Min, DNS_Drop} to the controller"
        )
        assert "redirects more than the controller-load budget" in text
        assert "52.7%" in text

    def test_vetoed_decision_is_not_rechecked(self, firewall_program,
                                              firewall_config,
                                              firewall_trace):
        """A vetoed offload applied nothing, so the DNS flood breaks no
        licence of the run."""
        result = P2GO(
            firewall_program, firewall_config, firewall_trace,
            example_firewall.TARGET,
            review_hook=lambda d: d.phase is not Phase.OFFLOAD_CODE,
        ).run()
        assert [d.phase for d in result.decisions
                if d.verdict is Verdict.VETOED] == [Phase.OFFLOAD_CODE]
        assert recheck(result, firewall_config, DNS_FLOOD) == ()

    def test_resize_breaks_on_spoof_flood(self):
        """Phase 3 trims sourceguard's first Bloom array; on a flood of
        random spoofed sources the trimmed filter no longer behaves like
        the original, which only the resize's own licence (a re-profile
        equal to the original's) can see."""
        program = sourceguard.build_program()
        config = sourceguard.runtime_config(program)
        result = P2GO(
            program, config, sourceguard.make_trace(4000),
            sourceguard.TARGET,
        ).run()
        (resize,) = result.applied
        assert (resize.candidate.name, resize.candidate.new_size) == (
            "sg_array0", 3840,
        )
        rng = random.Random(5)
        flood = [
            udp_packet(
                rng.getrandbits(32),
                ip_to_int("10.0.9.1") + rng.randrange(256),
                rng.randrange(1024, 65535),
                9000,
            )
            for _ in range(3000)
        ]
        violated = recheck(result, config, flood)
        assert summary(violated) == [
            (Phase.REDUCE_MEMORY, Verdict.VIOLATED,
             Reason.BEHAVIOUR_CHANGED)
        ]
        assert violated[0].candidate == resize.candidate
        assert "hit count of sg_verdict changed: 2983 -> 2999" in (
            violated[0].evidence
        )


@pytest.mark.parametrize("family", FAMILIES)
def test_own_trace_breaks_no_licence(family):
    """Every rewrite a run applied holds on the trace it was derived
    from."""
    program, config, trace, target = family_inputs(family, packets=400)
    result = P2GO(
        program, config.clone(), trace, target, store=False
    ).run()
    assert recheck(result, config, trace) == ()


def test_removed_drift_api_stays_removed():
    """The re-check is one function over the run's decisions, and the
    guard mirrors its own entries: each module exports only these, and
    the uncalled helpers deleted beside them stay gone."""
    from repro import core
    from repro.analysis.dependencies import DependencyGraph
    from repro.controller.offload_runtime import OffloadController
    from repro.p4.program import Program
    from repro.target.model import TargetModel
    from repro.target.resources import TableFootprint

    exported = {}
    for name, module in core._EXPORTS.items():
        exported.setdefault(module, set()).add(name)
    assert exported["drift"] == {"recheck"}
    assert exported["runtime_guard"] == {
        "DependencyGuard", "add_dependency_guard", "guard_notifications",
    }
    for owner, name in (
        (Program, "action_for"),
        (OffloadController, "handle_trace"),
        (TableFootprint, "overhead_blocks"),
        (DependencyGraph, "predecessors_of"),
        (TargetModel, "total_sram_bytes"),
        (TargetModel, "total_tcam_bytes"),
    ):
        assert not hasattr(owner, name), name
