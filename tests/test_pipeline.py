"""End-to-end tests of the P2GO orchestrator — the paper's Table 2 and
Table 3 headline results."""

import pytest

from repro.core import P2GO
from repro.core.observations import Phase, Reason, Verdict
from repro.programs import example_firewall


class TestTable2:
    """Ex. 1's stage progression: 8 -> 7 -> 6 -> 3 (Table 2)."""

    def test_stage_progression(self, firewall_result):
        assert [o.stages for o in firewall_result.outcomes] == [8, 7, 6, 3]

    def test_initial_stage_map(self, firewall_result):
        initial = firewall_result.outcomes[0].stage_map
        assert initial[0] == ["IPv4"] and initial[1] == ["IPv4"]
        assert initial[7] == ["DNS_Drop"]

    def test_acls_share_stage_after_phase2(self, firewall_result):
        after_deps = firewall_result.outcomes[1].stage_map
        assert ["ACL_DHCP", "ACL_UDP"] in after_deps

    def test_final_map_matches_paper(self, firewall_result):
        final = firewall_result.outcomes[-1].stage_map
        assert final[0] == ["IPv4"]
        assert final[1] == ["ACL_DHCP", "ACL_UDP"]
        assert final[2] == ["To_Ctl"]

    def test_offloaded_tables(self, firewall_result):
        assert set(firewall_result.offloaded_tables) == {
            "Sketch_1", "Sketch_2", "Sketch_Min", "DNS_Drop",
        }

    def test_sketch_resizes_rejected(self, firewall_result):
        rejected = [
            d.candidate.name for d in firewall_result.decisions
            if d.phase is Phase.REDUCE_MEMORY
            and d.reason is Reason.BEHAVIOUR_CHANGED
        ]
        assert "dns_cms_row0" in rejected

    def test_ipv4_resize_accepted(self, firewall_result):
        (resize,) = [
            d.candidate for d in firewall_result.applied
            if d.phase is Phase.REDUCE_MEMORY
        ]
        assert resize.name == "IPv4"
        assert resize.new_size < resize.original_size

    def test_phase_names_in_order(self, firewall_result):
        phases = [o.phase for o in firewall_result.outcomes]
        assert phases == [
            Phase.PROFILING,
            Phase.REMOVE_DEPENDENCIES,
            Phase.REDUCE_MEMORY,
            Phase.OFFLOAD_CODE,
        ]

    def test_optimized_program_validates(self, firewall_result):
        firewall_result.optimized_program.validate()

    def test_final_config_covers_remaining_tables(self, firewall_result):
        config = firewall_result.final_config
        program = firewall_result.optimized_program
        config.validate(program)
        for table in firewall_result.offloaded_tables:
            assert config.entry_count(table) == 0


class TestTable3:
    def test_nat_gre(self, natgre_result):
        assert natgre_result.stages_before == 4
        assert natgre_result.stages_after == 3
        removed = [
            (d.candidate.src, d.candidate.dst)
            for d in natgre_result.applied
            if d.phase is Phase.REMOVE_DEPENDENCIES
        ]
        assert ("nat", "gre_term") in removed

    def test_sourceguard(self, sourceguard_result):
        assert sourceguard_result.stages_before == 5
        assert sourceguard_result.stages_after == 4
        resized = [
            d.candidate for d in sourceguard_result.applied
            if d.phase is Phase.REDUCE_MEMORY
        ]
        assert any(
            r.kind.value == "register" and r.name.startswith("sg_array")
            for r in resized
        )

    def test_failure_detection(self, failure_result):
        assert failure_result.stages_before == 4
        assert failure_result.stages_after == 2
        assert set(failure_result.offloaded_tables) == {
            "cms_0", "cms_1", "FailureAlarm",
        }


class TestKnobs:
    def test_phase_subset(self, firewall_program, firewall_config,
                          firewall_trace):
        result = P2GO(
            firewall_program,
            firewall_config,
            firewall_trace,
            example_firewall.TARGET,
            phases=(2,),
        ).run()
        assert [o.stages for o in result.outcomes] == [8, 7]

    def test_review_hook_can_veto(self, firewall_program, firewall_config,
                                  firewall_trace):
        result = P2GO(
            firewall_program,
            firewall_config,
            firewall_trace,
            example_firewall.TARGET,
            phases=(2,),
            review_hook=lambda decision: False,
        ).run()
        # The veto rolls every change back: stages unchanged.
        assert result.stages_after == result.stages_before
        assert any(d.verdict is Verdict.VETOED for d in result.decisions)
        assert result.applied == ()

    def test_stage_history_shape(self, firewall_result):
        history = firewall_result.stage_history()
        assert history[0][0] == "profiling"
        assert history[-1][0] == "offload_code"
