"""Tests for phase 4 — offloading code to the controller (§3.4)."""

import pytest

from repro.core.phase_offload import (
    TO_CTL_TABLE,
    Offload,
    SegmentCandidate,
    enumerate_candidates,
    evaluate_candidates,
    is_self_contained,
    make_offloaded_program,
    run_phase,
    select_candidate,
)
from repro.controller.equivalence import check_result, compare_with_offload
from repro.core.drift import recheck
from repro.core.fleet import family_inputs
from repro.core.observations import Decision, Phase, Verdict
from repro.core.pipeline import P2GO
from repro.core.profiler import Profiler
from repro.core.session import OptimizationContext, Source
from repro.exceptions import OffloadError
from repro.fuzz.generator import generate_case
from repro.p4 import (
    Apply,
    Const,
    FieldRef,
    If,
    ModifyField,
    ProgramBuilder,
    Seq,
    iter_nodes,
)
from repro.p4.dsl import parse_program
from repro import programs
from repro.programs import cgnat, enterprise, failure_detection, telemetry
from repro.programs.common import EXAMPLE_TARGET
from repro.sim.runtime import RuntimeConfig
from repro.sim.switch import BehavioralSwitch
from repro.target import compile_program

FAMILIES = [n for n in programs.__all__ if n != "EXAMPLE_TARGET"]


def find_subtree(program, table_set):
    """The smallest subtree applying exactly the given tables."""
    from repro.p4.control import tables_applied

    best = None
    for node in iter_nodes(program.ingress):
        if set(tables_applied(node)) == table_set:
            best = node  # keep descending: later matches are smaller
    return best


class TestSelfContainment:
    def test_dns_branch_self_contained(self, firewall_program):
        subtree = find_subtree(
            firewall_program,
            {"Sketch_1", "Sketch_2", "Sketch_Min", "DNS_Drop"},
        )
        # The If(valid(dns)) node also matches; take the outermost.
        for node in iter_nodes(firewall_program.ingress):
            from repro.p4.control import tables_applied

            if set(tables_applied(node)) == {
                "Sketch_1", "Sketch_2", "Sketch_Min", "DNS_Drop",
            }:
                assert is_self_contained(firewall_program, node)
                break

    def test_sketch_row_alone_not_self_contained(self, firewall_program):
        """Sketch_1 writes metadata Sketch_Min consumes — not
        offloadable alone."""
        subtree = find_subtree(firewall_program, {"Sketch_1"})
        assert not is_self_contained(firewall_program, subtree)

    def test_sketch_min_not_self_contained(self, firewall_program):
        """Sketch_Min reads the rows' metadata — needs outside state."""
        subtree = find_subtree(firewall_program, {"Sketch_Min"})
        assert not is_self_contained(firewall_program, subtree)

    def test_consumer_of_outside_metadata_rejected(self):
        b = ProgramBuilder("p")
        b.header_type("h_t", [("f", 16)]).header("h", "h_t")
        b.parser_state("start", extracts=["h"])
        b.metadata("m", [("x", 16)])
        b.action("produce", [ModifyField(FieldRef("m", "x"), Const(1))])
        b.action("consume", [ModifyField(FieldRef("m", "x"), FieldRef("m", "x"))])
        b.table("prod", keys=[], actions=[], default_action="produce")
        b.table("cons", keys=[("m.x", "exact")], actions=["consume"])
        b.ingress(Seq([Apply("prod"), Apply("cons")]))
        program = b.build()
        subtree = find_subtree(program, {"cons"})
        assert not is_self_contained(program, subtree)

    def test_ingress_port_read_allowed(self, firewall_program):
        """ACL_DHCP keys on the ingress port — that arrives with the
        punted packet and does not block offloading."""
        subtree = find_subtree(firewall_program, {"ACL_DHCP"})
        assert is_self_contained(firewall_program, subtree)


class TestEnumeration:
    def test_firewall_candidates(self, firewall_program):
        candidates = enumerate_candidates(firewall_program)
        table_sets = {frozenset(c.tables) for c in candidates}
        assert frozenset(
            {"Sketch_1", "Sketch_2", "Sketch_Min", "DNS_Drop"}
        ) in table_sets
        assert frozenset({"Sketch_1"}) not in table_sets

    def test_whole_program_excluded(self, firewall_program):
        candidates = enumerate_candidates(firewall_program)
        all_tables = frozenset(firewall_program.tables)
        assert all(frozenset(c.tables) != all_tables for c in candidates)

    def test_boundary_guard_recorded(self, firewall_program):
        candidates = enumerate_candidates(firewall_program)
        dns = next(
            c for c in candidates
            if set(c.tables) == {"Sketch_1", "Sketch_2", "Sketch_Min",
                                 "DNS_Drop"}
        )
        assert dns.boundary_guard == "valid(dns)"


ELSE_SHARES_REGISTER = """
header_type eth_t { fields { kind : 16; port : 16; } }
header_type m_t { fields { seen : 32; } }
header eth_t eth;
metadata m_t m;
register r { width : 32; instance_count : 1; }

action fwd(port) { set_egress_port(port); }
action count() {
    register_read(m.seen, r, 0);
    add_to_field(m.seen, 1);
    register_write(r, 0, m.seen);
}
action check() { register_read(m.seen, r, 0); }
action deny() { drop(); }

table fib { reads { eth.kind : exact; } actions { fwd; } size : 16; }
table counter { default_action : count; }
table checker { default_action : check; }
table gate { reads { m.seen : exact; } actions { deny; } size : 16; }

parser start { extract(eth); return accept; }

control ingress {
    apply(fib);
    if ((eth.port < 8)) {
        apply(counter);
    } else {
        apply(checker);
        apply(gate);
    }
}
"""


class TestIfElseSegment:
    """cgnat's ``if (ingress_port < 8) {nat_inside} else {nat_outside}``:
    the redirect replaces the then-branch only, so the segment's tables
    are ``nat_inside`` alone and ``nat_outside`` keeps its entries."""

    def test_else_branch_is_outside_the_segment(self):
        """The else-branch stays on the switch: a register it shares
        with the then-branch would be split between switch and
        controller."""
        program = parse_program(ELSE_SHARES_REGISTER, "else_shares_register")
        guard = next(
            n for n in iter_nodes(program.ingress) if isinstance(n, If)
        )
        assert not is_self_contained(program, guard)
        assert [c.tables for c in enumerate_candidates(program)] == [
            ("fib",)
        ]

    def test_segment_is_the_then_branch(self):
        """``nat_outside`` is no candidate: it rewrites a header field
        ``ipv4_fib`` reads after it (below)."""
        program = cgnat.build_program()
        segments = {
            c.tables: c.boundary_guard for c in enumerate_candidates(program)
        }
        assert segments == {
            ("nat_inside",): "(standard_metadata.ingress_port < 8)",
            ("ipv4_fib",): None,
        }

    def test_a_header_rewrite_read_later_blocks_the_offload(self):
        """``nat_outside`` rewrites ``ipv4.dstAddr``, which ``ipv4_fib``
        matches on after it.  Offloaded, the switch would route every
        packet it redirects on the address the controller rewrites, and
        pick another egress for all 800 of them, while
        ``compare_with_offload``, which checks only drop and notify on a
        redirected packet, reports none: self-containment is the check
        that keeps this variant out."""
        program = cgnat.build_program()
        config = cgnat.runtime_config()
        trace = cgnat.make_trace(2000, seed=1)
        subtree = find_subtree(program, {"nat_outside"})
        assert not is_self_contained(program, subtree)

        segment = SegmentCandidate(subtree, ("nat_outside",), None)
        variant = make_offloaded_program(program, segment)
        variant_config = config.restricted_to(
            [t for t in variant.tables if t != "nat_outside"]
        )
        original = BehavioralSwitch(program, config).process_many(trace)
        offloaded = BehavioralSwitch(variant, variant_config).process_many(
            trace
        )
        redirected = [
            (a, b) for a, b in zip(original, offloaded) if b.to_controller
        ]
        assert len(redirected) == 800
        assert all(a.egress_port != b.egress_port for a, b in redirected)
        assert compare_with_offload(
            program, config, variant, variant_config, segment, trace
        ).equivalent

    def test_every_candidate_variant_is_equivalent(self):
        program = cgnat.build_program()
        config = cgnat.runtime_config()
        trace = cgnat.make_trace(2000, seed=1)
        for candidate in enumerate_candidates(program):
            variant = make_offloaded_program(program, candidate)
            variant_config = config.restricted_to(
                [t for t in variant.tables if t not in candidate.tables]
            )
            report = compare_with_offload(
                program, config, variant, variant_config, candidate, trace
            )
            assert report.equivalent, (
                f"{candidate.tables}: {len(report.mismatches)} of "
                f"{report.total} packets differ"
            )


class TestProgramGeneration:
    def test_to_ctl_replaces_segment(self, firewall_program):
        candidates = enumerate_candidates(firewall_program)
        dns = next(
            c for c in candidates
            if set(c.tables) == {"Sketch_1", "Sketch_2", "Sketch_Min",
                                 "DNS_Drop"}
        )
        modified = make_offloaded_program(firewall_program, dns)
        tables = modified.tables_in_control_order()
        assert TO_CTL_TABLE in tables
        assert "Sketch_1" not in tables
        # The valid(dns) guard stays in the data plane.
        guards = [
            str(n.condition)
            for n in iter_nodes(modified.ingress)
            if isinstance(n, If)
        ]
        assert "valid(dns)" in guards

    def test_reoffload_gets_unique_redirect_name(self, firewall_program):
        """Re-running P2GO on an already-offloaded program must not
        collide on the redirect table's name (§3.2's re-run workflow)."""
        candidates = enumerate_candidates(firewall_program)
        dns = next(c for c in candidates if "Sketch_1" in c.tables)
        modified = make_offloaded_program(firewall_program, dns)
        remaining = enumerate_candidates(modified)
        assert remaining, "expected further candidates after offloading"
        second = make_offloaded_program(modified, remaining[0])
        assert "To_Ctl_2" in second.tables

    def test_explicit_duplicate_name_rejected(self, firewall_program):
        candidates = enumerate_candidates(firewall_program)
        dns = next(c for c in candidates if "Sketch_1" in c.tables)
        with pytest.raises(OffloadError):
            make_offloaded_program(
                firewall_program, dns, table_name="IPv4"
            )


def evaluated(tables, saved, redirect):
    """A segment's decision as evaluate_candidates logs it."""
    segment = SegmentCandidate(
        subtree=Seq([]), tables=tuple(tables), boundary_guard=None
    )
    return Decision(
        Phase.OFFLOAD_CODE,
        Verdict.REJECTED,
        Offload(segment, TO_CTL_TABLE, redirect),
        stages_before=8,
        stages_after=8 - saved,
    )


def tables_of(decision):
    return decision.candidate.segment.tables


class TestSelection:
    def test_least_redirect_wins(self):
        chosen = select_candidate(
            [evaluated(["a"], 1, 0.05), evaluated(["b"], 2, 0.02)]
        )
        assert tables_of(chosen) == ("b",)

    def test_savings_threshold_filters(self):
        chosen = select_candidate(
            [evaluated(["a"], 0, 0.01), evaluated(["b"], 1, 0.05)]
        )
        assert tables_of(chosen) == ("b",)

    def test_load_budget_filters(self):
        chosen = select_candidate(
            [evaluated(["a"], 3, 0.90), evaluated(["b"], 1, 0.05)]
        )
        assert tables_of(chosen) == ("b",)

    def test_nothing_qualifies(self):
        assert select_candidate([evaluated(["a"], 0, 0.9)]) is None

    def test_tie_broken_by_more_savings(self):
        chosen = select_candidate(
            [evaluated(["a"], 1, 0.02), evaluated(["b"], 3, 0.02)]
        )
        assert tables_of(chosen) == ("b",)


class TestRunPhaseOnFailureDetection:
    def test_cms_segment_offloaded(self):
        """Table 3 row 3: the CMS + alarm move to the controller, freeing
        two stages (4 -> 2)."""
        program = failure_detection.build_program()
        config = failure_detection.runtime_config()
        trace = failure_detection.make_trace(2000)
        with OptimizationContext(
            program, config, trace, failure_detection.TARGET
        ) as ctx:
            outcome = run_phase(ctx, program, config)
        decision = outcome.accepted
        offload = decision.candidate
        assert set(offload.segment.tables) == {
            "cms_0", "cms_1", "FailureAlarm",
        }
        assert decision.stages_before - decision.stages_after == 2
        assert offload.redirect_fraction < 0.05

    def test_offloaded_config_drops_segment_entries(self):
        program = failure_detection.build_program()
        config = failure_detection.runtime_config()
        trace = failure_detection.make_trace(1000)
        with OptimizationContext(
            program, config, trace, failure_detection.TARGET
        ) as ctx:
            outcome = run_phase(ctx, program, config)
        assert outcome.config.entry_count("FailureAlarm") == 0


class TestEnterpriseOffload:
    """From 1500 packets on, the enterprise DNS stream fits the 10 %
    controller budget and phase 4 offloads the sketch segment; 127 of
    the 150 redirected packets are ones sourceguard — still on the
    switch, upstream of ``To_Ctl`` — drops, which the controller's
    sketch segment alone has no reason to.  Switch + controller together
    reproduce the original (DESIGN.md §6)."""

    @pytest.fixture(scope="class")
    def run(self):
        program = enterprise.build_program()
        config = enterprise.runtime_config(program)
        trace = enterprise.make_trace(1500, seed=1)
        result = P2GO(
            program, config, trace, enterprise.TARGET,
            phases=(2, 3, 4), store=False,
        ).run()
        return config, trace, result

    def test_phase4_offloads_the_dns_sketch_segment(self, run):
        _config, _trace, result = run
        assert set(result.offloaded_tables) == {
            "Sketch_1", "Sketch_2", "Sketch_Min", "DNS_Drop",
        }
        assert (result.stages_before, result.stages_after) == (11, 7)

    def test_offload_preserves_behaviour_on_the_profiled_trace(self, run):
        config, trace, result = run
        report = check_result(result, config, trace)
        assert (report.total, report.redirected) == (1500, 150)
        assert report.equivalent, (
            f"{len(report.mismatches)} of {report.total} packets differ"
        )


class TestTelemetryProgram:
    """Three rare monitoring features, each in its own stage: ROADMAP
    item 1's reproduction runs on this program."""

    @pytest.fixture(scope="class")
    def setup(self):
        program = telemetry.build_program()
        return program, telemetry.runtime_config(), telemetry.make_trace(3000)

    def test_five_stages(self, setup):
        program, _config, _trace = setup
        assert compile_program(program, telemetry.TARGET).stages_used == 5

    def test_feature_rates(self, setup):
        program, config, trace = setup
        profile = Profiler(program, config).run(trace)
        assert profile.apply_rate("dns_hh") == pytest.approx(0.024, abs=0.003)
        assert profile.apply_rate("ttl_probe") == pytest.approx(
            0.01, abs=0.003
        )
        assert profile.apply_rate("syn_mon") == pytest.approx(
            0.05, abs=0.005
        )


#: Packets each bundled program's optimized switch redirects on its
#: ``make_trace(1500)``; the rest redirect none (ddos_mitigation
#: offloads a segment no packet of its trace reaches).
REDIRECTED = {"enterprise": 150, "failure_detection": 45, "telemetry": 15}


@pytest.mark.parametrize("family", FAMILIES)
def test_every_bundled_program_behaves_as_its_original(family):
    """``check_result`` holds phases 2-4's output to the original:
    strictly when nothing was offloaded, switch + controller
    otherwise."""
    program, config, trace, target = family_inputs(
        family, packets=1500, trace_seed=None
    )
    result = P2GO(
        program, config.clone(), trace, target, phases=(2, 3, 4),
        store=False,
    ).run()
    report = check_result(result, config, trace)
    assert report.equivalent, (
        f"{len(report.mismatches)} of {report.total} packets differ"
    )
    assert (report.total, report.redirected) == (
        1500, REDIRECTED.get(family, 0),
    )


# ----------------------------------------------------------------------
# Each candidate's load against a replay of its variant (§3.4's measure).


def assert_loads_match_variant_replays(program, config, trace, target):
    """Every load ``evaluate_candidates`` logs equals the redirect's
    apply rate on a replay of the variant, under the config of the
    tables the variant still applies."""
    candidates = enumerate_candidates(program)
    with OptimizationContext(program, config, trace, target) as ctx:
        decisions = evaluate_candidates(ctx, program, config, candidates)
    for candidate, decision in zip(candidates, decisions):
        offload = decision.candidate
        variant = make_offloaded_program(
            program, candidate, table_name=offload.redirect_table
        )
        kept = config.restricted_to(variant.tables_in_control_order())
        replayed = Profiler(variant, kept).run(trace)
        assert offload.redirect_fraction == replayed.apply_rate(
            offload.redirect_table
        ), candidate.tables
    return len(candidates)


@pytest.mark.parametrize("family", FAMILIES)
def test_bundled_loads_match_variant_replays(family):
    program, config, trace, target = family_inputs(family, packets=1000)
    assert assert_loads_match_variant_replays(program, config, trace, target)


def test_fuzz_loads_match_variant_replays():
    checked = 0
    for seed in range(100):
        case = generate_case(seed)
        checked += assert_loads_match_variant_replays(
            case.program, case.config, case.trace, case.target
        )
    # 315 before a segment that rewrites a header field read after it
    # stopped being self-contained.
    assert checked == 246


NESTED_GUARD = """
header_type eth_t { fields { kind : 16; } }
header_type udp_t { fields { dstPort : 16; } }
header eth_t eth;
header udp_t udp;

action fwd(port) { set_egress_port(port); }
action deny() { drop(); }

table fib {
    reads { eth.kind : exact; }
    actions { fwd; }
    size : 16;
}
table dns_acl {
    reads { udp.dstPort : exact; }
    actions { deny; }
    size : 16;
}

parser start {
    extract(eth);
    return select(eth.kind) { 17 : parse_udp; default : accept; }
}
parser parse_udp { extract(udp); return accept; }

control ingress {
    apply(fib);
    if (valid(udp)) {
        if ((udp.dstPort == 53)) {
            apply(dns_acl);
        }
    }
}
"""


def test_a_body_entered_without_a_table_replays_its_variant():
    """``if (valid(udp)) { if (udp.dstPort == 53) { apply(dns_acl); } }``:
    the redirect takes every UDP packet, the body's table only DNS
    ones, so this variant alone is replayed."""
    program = parse_program(NESTED_GUARD, "nested_guard")
    config = RuntimeConfig()
    config.add_entry("fib", [17], "fwd", [1])
    config.add_entry("dns_acl", [53], "deny")
    trace = (
        [bytes.fromhex("0011") + port.to_bytes(2, "big")
         for port in (53, 53, 80, 443, 80)]
        + [bytes.fromhex("08000000")] * 5
    )
    with OptimizationContext(program, config, trace, EXAMPLE_TARGET) as ctx:
        profile = ctx.profile()
        since = len(ctx.probes)
        candidates = enumerate_candidates(program)
        decisions = evaluate_candidates(ctx, program, config, candidates)
        executed = [
            record for record in ctx.probes[since:]
            if record.kind == "profile" and record.source is Source.EXECUTED
        ]
    assert [c.tables for c in candidates] == [("fib",), ("dns_acl",)]
    assert len(executed) == 1
    loads = [d.candidate.redirect_fraction for d in decisions]
    assert loads == [1.0, 0.5]
    assert profile.traversal_rate(("dns_acl",)) == 0.2
    assert_loads_match_variant_replays(program, config, trace, EXAMPLE_TARGET)


def test_an_accepted_offload_holds_its_licence_on_its_own_trace(
    firewall_result, firewall_config, firewall_trace
):
    assert firewall_result.offloaded is not None
    assert recheck(firewall_result, firewall_config, firewall_trace) == ()
