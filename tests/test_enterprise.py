"""Tests for the enterprise (fit-recovery) program."""

import pytest

from repro.analysis import ControlGraph, analyse
from repro.core import P2GO
from repro.programs import enterprise
from repro.sim import BehavioralSwitch
from repro.target import compile_program


@pytest.fixture(scope="module")
def program():
    return enterprise.build_program()


@pytest.fixture(scope="module")
def config(program):
    return enterprise.runtime_config(program)


class TestOversubscription:
    def test_initially_does_not_fit(self, program):
        result = compile_program(program, enterprise.TARGET)
        assert result.stages_used == 11
        assert not result.fits

    def test_compiler_still_produces_full_analysis(self, program):
        """§2.2: compile in simulation regardless of resources — the stage
        map, dependency graph and control graph are all available."""
        analysis = analyse(program)
        result = compile_program(program, enterprise.TARGET, analysis)
        assert len(result.stage_map()) == 11
        assert result.dependency_graph.edges()
        assert ControlGraph(program).paths

    def test_config_validates(self, program, config):
        config.validate(program)


class TestTrafficBehavior:
    def test_combined_features_work(self, program, config):
        switch = BehavioralSwitch(program, config)
        results = switch.process_trace(enterprise.make_trace(2000))
        dropped = sum(1 for r in results if r.dropped)
        # Spoofed sources + blocked ports + untrusted DHCP all drop.
        assert dropped > 0
        hit_tables = set()
        for r in results:
            hit_tables.update(r.hit_tables())
        assert {"IPv4", "ACL_UDP", "ACL_DHCP", "sg_verdict"} <= hit_tables

    def test_legit_clients_pass_sourceguard(self, program, config):
        from repro.packets.craft import udp_packet

        switch = BehavioralSwitch(program, config)
        for ip in enterprise.ASSIGNED_CLIENT_IPS[:5]:
            result = switch.process(udp_packet(ip, "10.0.9.1", 1234, 9000))
            assert not result.dropped


class TestFitRecovery:
    @pytest.fixture(scope="class")
    def optimized(self, program, config):
        return P2GO(
            program, config, enterprise.make_trace(3000), enterprise.TARGET
        ).run()

    def test_optimized_fits(self, optimized):
        after = compile_program(
            optimized.optimized_program, enterprise.TARGET
        )
        assert after.fits

    def test_every_phase_contributed(self, optimized):
        stages = [o.stages for o in optimized.outcomes]
        assert stages[0] == 11
        assert stages == sorted(stages, reverse=True)
        assert stages[-1] <= enterprise.TARGET.num_stages

    def test_dns_branch_offloaded(self, optimized):
        assert set(optimized.offloaded_tables) == {
            "Sketch_1", "Sketch_2", "Sketch_Min", "DNS_Drop",
        }
