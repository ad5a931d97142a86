"""Tests for phase 2 — removing dependencies that do not manifest (§3.2)."""

import pytest

from repro.analysis.dependencies import build_dependency_graph
from repro.controller import compare_behavior
from repro.core.phase_dependencies import (
    dependency_manifests,
    find_removal_candidates,
    remove_dependency,
    run_phase,
)
from repro.core.observations import Reason, Verdict
from repro.core.profiler import Profiler
from repro.exceptions import OptimizationError
from repro.p4.control import find_apply
from repro.programs import example_firewall, nat_gre
from repro.target import compile_program


@pytest.fixture(scope="module")
def firewall_setup(firewall_program, firewall_config, firewall_trace):
    result = compile_program(firewall_program, example_firewall.TARGET)
    profile = Profiler(firewall_program, firewall_config).run(
        firewall_trace
    )
    return firewall_program, result, profile


class TestManifestation:
    def test_acl_pair_does_not_manifest(self, firewall_setup):
        _program, result, profile = firewall_setup
        dep = result.dependency_graph.between("ACL_UDP", "ACL_DHCP")
        assert not dependency_manifests(dep, profile)

    def test_ipv4_acl_manifests(self, firewall_setup):
        _program, result, profile = firewall_setup
        dep = result.dependency_graph.between("IPv4", "ACL_UDP")
        assert dependency_manifests(dep, profile)

    def test_sketch_chain_manifests(self, firewall_setup):
        _program, result, profile = firewall_setup
        dep = result.dependency_graph.between("Sketch_Min", "DNS_Drop")
        assert dependency_manifests(dep, profile)


class TestCandidates:
    def test_acl_pair_is_candidate(self, firewall_setup):
        _program, result, profile = firewall_setup
        candidates = find_removal_candidates(result, profile)
        pairs = {(c.src, c.dst) for c in candidates}
        assert ("ACL_UDP", "ACL_DHCP") in pairs

    def test_manifesting_deps_not_candidates(self, firewall_setup):
        _program, result, profile = firewall_setup
        candidates = find_removal_candidates(result, profile)
        pairs = {(c.src, c.dst) for c in candidates}
        assert ("IPv4", "ACL_UDP") not in pairs
        assert ("Sketch_Min", "DNS_Drop") not in pairs

    def test_candidates_carry_evidence(self, firewall_setup):
        """A candidate's evidence is its dependency's causes, none of
        which the profile exercised."""
        _program, result, profile = firewall_setup
        candidates = find_removal_candidates(result, profile)
        assert candidates
        for c in candidates:
            assert c.causes
            assert not dependency_manifests(c, profile)


class TestRewrite:
    def test_rewrite_moves_acl_dhcp_into_miss(self, firewall_setup):
        program, result, _profile = firewall_setup
        dep = result.dependency_graph.between("ACL_UDP", "ACL_DHCP")
        rewritten = remove_dependency(program, dep)
        acl_udp = find_apply(rewritten.ingress, "ACL_UDP")
        assert acl_udp.on_miss is not None
        from repro.p4.control import tables_applied

        assert "ACL_DHCP" in tables_applied(acl_udp.on_miss)

    def test_rewrite_saves_a_stage(self, firewall_setup):
        program, result, _profile = firewall_setup
        dep = result.dependency_graph.between("ACL_UDP", "ACL_DHCP")
        rewritten = remove_dependency(program, dep)
        assert (
            compile_program(rewritten, example_firewall.TARGET).stages_used
            == result.stages_used - 1
        )

    def test_rewrite_removes_the_dependency(self, firewall_setup):
        program, result, _profile = firewall_setup
        dep = result.dependency_graph.between("ACL_UDP", "ACL_DHCP")
        rewritten = remove_dependency(program, dep)
        new_graph = build_dependency_graph(rewritten)
        new_dep = new_graph.between("ACL_UDP", "ACL_DHCP")
        from repro.analysis.dependencies import DependencyKind

        assert new_dep is not None
        assert new_dep.kind is DependencyKind.SUCCESSOR

    def test_rewrite_preserves_behavior_on_trace(
        self, firewall_setup, firewall_config, firewall_trace
    ):
        program, result, _profile = firewall_setup
        dep = result.dependency_graph.between("ACL_UDP", "ACL_DHCP")
        rewritten = remove_dependency(program, dep)
        report = compare_behavior(
            program, firewall_config, rewritten, firewall_config,
            firewall_trace,
        )
        assert report.equivalent

    def test_non_adjacent_tables_rejected(self, firewall_setup):
        program, result, _profile = firewall_setup
        dep = result.dependency_graph.between("ACL_UDP", "DNS_Drop")
        assert dep is not None
        with pytest.raises(OptimizationError) as refused:
            remove_dependency(program, dep)
        assert refused.value.args == (Reason.NOT_SIBLINGS,)

    def test_original_program_untouched(self, firewall_setup):
        program, result, _profile = firewall_setup
        dep = result.dependency_graph.between("ACL_UDP", "ACL_DHCP")
        remove_dependency(program, dep)
        acl_udp = find_apply(program.ingress, "ACL_UDP")
        assert acl_udp.on_miss is None


class TestRunPhase:
    def test_single_removal_per_pass(self, firewall_setup):
        program, result, profile = firewall_setup
        outcome = run_phase(program, result, profile)
        removed = outcome.accepted.candidate
        assert (removed.src, removed.dst) == ("ACL_UDP", "ACL_DHCP")
        # One removal per pass: the accepted decision is the last one.
        assert outcome.decisions[-1] is outcome.accepted

    def test_no_candidates_is_a_note(self, toy_program, toy_runtime):
        from repro.packets.craft import udp_packet

        trace = [udp_packet("1.1.1.1", "10.0.0.9", 5, 53)]
        result = compile_program(toy_program, example_firewall.TARGET)
        profile = Profiler(toy_program, toy_runtime).run(trace)
        outcome = run_phase(toy_program, result, profile)
        # fib->acl manifests on this trace (both hit packet 1).
        assert not outcome.changed
        assert [(d.verdict, d.reason) for d in outcome.decisions] == [
            (Verdict.REJECTED, Reason.MANIFESTS)
        ]


class TestNatGre:
    def test_match_dependency_removed(self):
        """The §4 NAT & GRE scenario: the dep is a MATCH dep (the FIB-side
        rewrite), dismissed because NAT never rewrites tunnel packets."""
        program = nat_gre.build_program()
        config = nat_gre.runtime_config()
        trace = nat_gre.make_trace(2000)
        result = compile_program(program, nat_gre.TARGET)
        profile = Profiler(program, config).run(trace)
        outcome = run_phase(program, result, profile)
        removed = outcome.accepted.candidate
        assert (removed.src, removed.dst) == ("nat", "gre_term")
        assert (
            compile_program(outcome.program, nat_gre.TARGET).stages_used == 3
        )

    def test_rewrite_behavior_preserved(self):
        program = nat_gre.build_program()
        config = nat_gre.runtime_config()
        trace = nat_gre.make_trace(2000)
        result = compile_program(program, nat_gre.TARGET)
        profile = Profiler(program, config).run(trace)
        outcome = run_phase(program, result, profile)
        report = compare_behavior(
            program, config, outcome.program, config, trace
        )
        assert report.equivalent
