"""Tests for §3.1's program instrumentation.

Key paper claims encoded here: instrumentation marks each executed action
in a distinct profiling-header field, introduces no new dependencies,
cannot increase the required stages, and does not change the program's
behaviour.
"""

import pytest

from repro.analysis.dependencies import build_dependency_graph
from repro.core.instrument import (
    PROFILE_HEADER,
    PROFILE_HEADER_TYPE,
    instrument,
)
from repro.exceptions import ProfilingError
from repro.p4 import ProgramBuilder
from repro.packets.craft import dns_query, udp_packet
from repro.packets.packet import unpack_fields
from repro.programs import example_firewall
from repro.sim import BehavioralSwitch
from repro.sim.parser_engine import parse_packet
from repro.target import compile_program
from tests.conftest import build_toy_program, toy_config


@pytest.fixture(scope="module")
def instrumented_toy():
    return instrument(build_toy_program())


class TestStructure:
    def test_profile_header_added(self, instrumented_toy):
        program = instrumented_toy.program
        assert PROFILE_HEADER in program.headers
        assert not program.headers[PROFILE_HEADER].metadata

    def test_one_bit_per_table_action_pair(self, instrumented_toy):
        pairs = set(instrumented_toy.bit_fields)
        assert ("fib", "fwd") in pairs
        assert ("fib", "NoAction") in pairs
        assert ("acl", "deny") in pairs
        assert ("acl", "NoAction") in pairs

    def test_actions_cloned_per_table(self, instrumented_toy):
        program = instrumented_toy.program
        assert "fwd__prof__fib" in program.actions
        assert "NoAction__prof__fib" in program.actions
        assert "NoAction__prof__acl" in program.actions
        # Distinct clones: one extra primitive each, writing distinct bits.
        fib_clone = program.actions["NoAction__prof__fib"]
        acl_clone = program.actions["NoAction__prof__acl"]
        assert fib_clone.writes() != acl_clone.writes()

    def test_profile_header_is_auto_valid(self, instrumented_toy):
        """The parser adds the header for every packet — no init table,
        no match-action resources consumed."""
        inst = instrumented_toy.program.headers[PROFILE_HEADER]
        assert inst.auto_valid
        assert (
            instrumented_toy.program.tables_in_control_order()
            == instrumented_toy.original.tables_in_control_order()
        )

    def test_original_untouched(self, instrumented_toy):
        original = instrumented_toy.original
        assert PROFILE_HEADER not in original.headers

    def test_program_without_tables_rejected(self):
        b = ProgramBuilder("empty")
        b.header_type("h_t", [("f", 8)]).header("h", "h_t")
        with pytest.raises(ProfilingError):
            instrument(b.build())


class TestNoNewDependencies:
    def test_no_cross_table_deps_from_profiling_bits(self, instrumented_toy):
        """Each bit is written by exactly one cloned action, so
        instrumentation adds no ACTION dependencies between the original
        tables (§3.1)."""
        original_graph = build_dependency_graph(instrumented_toy.original)
        instr_graph = build_dependency_graph(instrumented_toy.program)
        original_pairs = {
            (d.src, d.dst) for d in original_graph.edges()
        }
        instr_pairs = {(d.src, d.dst) for d in instr_graph.edges()}
        assert instr_pairs == original_pairs

    def test_stage_count_not_increased_toy(self, instrumented_toy):
        from repro.programs.common import EXAMPLE_TARGET

        before = compile_program(
            instrumented_toy.original, EXAMPLE_TARGET
        ).stages_used
        after = compile_program(
            instrumented_toy.program, EXAMPLE_TARGET
        ).stages_used
        assert after <= before

    def test_stage_count_not_increased_firewall(self, firewall_program):
        instrumented = instrument(firewall_program)
        before = compile_program(
            firewall_program, example_firewall.TARGET
        ).stages_used
        after = compile_program(
            instrumented.program, example_firewall.TARGET
        ).stages_used
        assert after <= before


class TestBehaviorPreserved:
    def test_same_forwarding_decisions(self):
        program = build_toy_program()
        config = toy_config()
        instrumented = instrument(program)
        plain = BehavioralSwitch(program, config)
        marked = BehavioralSwitch(
            instrumented.program, instrumented.adapt_config(config)
        )
        packets = [
            udp_packet("1.1.1.1", "10.0.0.9", 5, 53),
            udp_packet("1.1.1.1", "10.0.0.9", 5, 80),
            udp_packet("1.1.1.1", "99.0.0.9", 5, 9999),
        ]
        for pkt in packets:
            a = plain.process(pkt)
            b = marked.process(pkt)
            assert a.forwarding_decision() == b.forwarding_decision()


class TestDecoding:
    def test_bits_reflect_executed_actions(self):
        program = build_toy_program()
        config = toy_config()
        instrumented = instrument(program)
        switch = BehavioralSwitch(
            instrumented.program, instrumented.adapt_config(config)
        )
        result = switch.process(udp_packet("1.1.1.1", "10.0.0.9", 5, 53))
        pairs = set(instrumented.decode_result_bits(result.headers))
        assert pairs == {("fib", "fwd"), ("acl", "deny")}

    def test_miss_sets_default_bit(self):
        program = build_toy_program()
        config = toy_config()
        instrumented = instrument(program)
        switch = BehavioralSwitch(
            instrumented.program, instrumented.adapt_config(config)
        )
        result = switch.process(udp_packet("1.1.1.1", "10.0.0.9", 5, 80))
        pairs = set(instrumented.decode_result_bits(result.headers))
        assert ("acl", "NoAction") in pairs

    def test_packet_level_decode_matches_phv_decode(self):
        """§3.1's actual mechanism: read the marked bits off the emitted
        packet bytes."""
        program = build_toy_program()
        config = toy_config()
        instrumented = instrument(program)
        switch = BehavioralSwitch(
            instrumented.program, instrumented.adapt_config(config)
        )
        for pkt in (
            udp_packet("1.1.1.1", "10.0.0.9", 5, 53, b"payload"),
            dns_query("2.2.2.2", "8.8.8.8"),
        ):
            result = switch.process(pkt)
            from_phv = set(instrumented.decode_result_bits(result.headers))
            # The profiling header sits between the original headers and
            # the payload: re-parse with the original parser to find it.
            output = result.output_bytes
            start = len(output) - len(
                parse_packet(program, output).payload
            )
            profile_type = instrumented.program.header_types[
                PROFILE_HEADER_TYPE
            ]
            values = unpack_fields(
                profile_type,
                output[start:start + profile_type.byte_width],
            )
            from_bytes = {
                pair for pair, name in instrumented.bit_fields.items()
                if values[name]
            }
            assert from_bytes == from_phv

    def test_adapt_config_rejects_unknown_table(self):
        from repro.sim import RuntimeConfig

        instrumented = instrument(build_toy_program())
        bad = RuntimeConfig().add_entry("ghost", [1], "deny")
        with pytest.raises(ProfilingError):
            instrumented.adapt_config(bad)
