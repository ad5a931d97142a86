"""A bundled program is its ``.p4`` source in ``repro.programs``.

The sources replaced Python builder copies of the same nine programs.
These tests pin what the builders produced — each program's fingerprint
and its stage map on its own target — and check that every module
constant naming a program value (a register size, a guard's threshold, a
Bloom filter's layout) still says what the source says.
"""

import importlib

import pytest

from repro.core.session import program_fingerprint
from repro.p4 import BinOp, Const, FieldRef, If, SendToController
from repro.p4.control import iter_nodes
from repro.programs import (
    ddos_mitigation,
    enterprise,
    example_firewall,
    failure_detection,
    load_balancer,
    sourceguard,
)
from repro.target import compile_program

#: program -> ``program_fingerprint`` of the retired builder's program.
FINGERPRINTS = {
    "cgnat": "7a1f828d46288f5f2c7f124eb4f9899ab15b1999",
    "ddos_mitigation": "ceedaf3e71da9cde64c97f79200000ae721092b6",
    "enterprise": "f065abe04795bfa3ac6207fd029fd341839ea6fd",
    "example_firewall": "e978f0f82a7fe9d052c5f37eb90047630c262928",
    "failure_detection": "ce8ba0643c6504d6f456d94a35418e8242038c68",
    "load_balancer": "7edbf9e38f51be6cb617f22d563f8b41e56e1d78",
    "nat_gre": "c9c33090c83a36f25dcddc7665cc686f677a20a3",
    "sourceguard": "5b3ba9d7c910e5c0974a48be68c950f1037796fd",
    "telemetry": "4e4fb6129d7814134c17de849345a56c78f29382",
}

#: program -> the retired builder's stage map on the module's ``TARGET``.
STAGE_MAPS = {
    "cgnat": [["nat_inside", "nat_outside"], ["ipv4_fib"]],
    "ddos_mitigation": [
        ["Syn_1", "ipv4_fib"], ["Syn_2"], ["Syn_Min"],
        ["allow_bf1", "allow_bf2"], ["ddos_verdict"],
    ],
    "enterprise": [
        ["IPv4"], ["IPv4"], ["ACL_UDP", "syn_mon"], ["ACL_DHCP"],
        ["sg_bf1"], ["sg_bf2"], ["Sketch_1", "sg_verdict"],
        ["Sketch_1", "Sketch_2"], ["Sketch_2"], ["Sketch_Min"],
        ["DNS_Drop"],
    ],
    "example_firewall": [
        ["IPv4"], ["IPv4"], ["ACL_UDP"], ["ACL_DHCP", "Sketch_1"],
        ["Sketch_1", "Sketch_2"], ["Sketch_2"], ["Sketch_Min"],
        ["DNS_Drop"],
    ],
    "failure_detection": [
        ["retrans_check"], ["cms_0"], ["cms_1"], ["FailureAlarm"],
    ],
    "load_balancer": [["ipv4_fib", "vip"], ["lb_backend"]],
    "nat_gre": [["nat"], ["gre_term"], ["ipv4_fib"], ["l2"]],
    "sourceguard": [
        ["ipv4_fib"], ["ipv4_fib"], ["sg_bf1"], ["sg_bf2"], ["sg_verdict"],
    ],
    "telemetry": [
        ["ipv4_fib"], ["ipv4_fib"], ["dns_hh", "l2"], ["ttl_probe"],
        ["syn_mon"],
    ],
}


def module(name):
    return importlib.import_module(f"repro.programs.{name}")


@pytest.mark.parametrize("name", sorted(FINGERPRINTS))
def test_dsl_source_matches_builder(name):
    program = module(name).build_program()
    assert program.name == name
    assert program_fingerprint(program) == FINGERPRINTS[name]


@pytest.mark.parametrize("name", sorted(STAGE_MAPS))
def test_dsl_source_compiles_identically(name):
    mod = module(name)
    result = compile_program(mod.build_program(), mod.TARGET)
    assert result.stage_map() == STAGE_MAPS[name]


def guard_bound(program, path):
    """The constant ``c`` of the ingress guard ``path >= c``."""
    guards = [
        node.condition
        for node in iter_nodes(program.ingress)
        if isinstance(node, If) and isinstance(node.condition, BinOp)
    ]
    (bound,) = {
        guard.right.value
        for guard in guards
        if (guard.op, guard.left) == (">=", FieldRef.parse(path))
        and isinstance(guard.right, Const)
    }
    return bound


def register_sizes(program, *registers):
    return {program.registers[r].size for r in registers}


def test_firewall_constants_match_source():
    program = example_firewall.build_program()
    assert register_sizes(program, "dns_cms_row0", "dns_cms_row1") == {
        example_firewall.SKETCH_CELLS
    }
    assert (
        guard_bound(program, "dns_cms_meta.count")
        == example_firewall.DNS_QUERY_THRESHOLD
    )


def test_enterprise_constants_match_source():
    program = enterprise.build_program()
    assert register_sizes(program, "sg_array0", "sg_array1") == {
        enterprise.BLOOM_CELLS
    }
    assert register_sizes(
        program, "dns_cms_row0", "dns_cms_row1", "syn_reg"
    ) == {example_firewall.SKETCH_CELLS}
    assert (
        guard_bound(program, "dns_cms_meta.count")
        == example_firewall.DNS_QUERY_THRESHOLD
    )


def test_ddos_constants_match_source():
    program = ddos_mitigation.build_program()
    assert register_sizes(program, "syn_cms_row0", "syn_cms_row1") == {
        ddos_mitigation.SKETCH_CELLS
    }
    assert register_sizes(program, "allow_array0", "allow_array1") == {
        ddos_mitigation.BLOOM_CELLS
    }
    assert (
        guard_bound(program, "syn_cms_meta.count")
        == ddos_mitigation.SYN_THRESHOLD
    )


def test_sourceguard_constants_match_source():
    program = sourceguard.build_program()
    assert register_sizes(program, "sg_array0", "sg_array1") == {
        sourceguard.BLOOM_CELLS
    }


def test_failure_detection_alarm_reason_matches_source():
    program = failure_detection.build_program()
    assert program.actions["raise_alarm"].primitives == (
        SendToController(failure_detection.ALARM_REASON),
    )


def test_load_balancer_buckets_match_source():
    program = load_balancer.build_program()
    assert register_sizes(program, "lb_conns") == {load_balancer.BUCKETS}
    assert program.tables["lb_backend"].size == load_balancer.BUCKETS


#: program -> the handle its runtime config preloads a Bloom filter by.
BLOOM_FRAGMENTS = {
    "sourceguard": sourceguard.bloom_fragment_of(None),
    "enterprise": sourceguard.bloom_fragment_of(None),
    "ddos_mitigation": ddos_mitigation.allow_fragment_of(),
}


@pytest.mark.parametrize("name", sorted(BLOOM_FRAGMENTS))
def test_bloom_fragment_names_the_source_filter(name):
    """Each check table hashes the fragment's key with the fragment's
    algorithm into its register and reads the bit it names, so the
    controller's preload sets the cells the data plane checks."""
    program = module(name).build_program()
    fragment = BLOOM_FRAGMENTS[name]
    rows = zip(
        fragment.check_tables,
        fragment.registers,
        fragment.algorithms,
        fragment.bit_fields,
    )
    for table, register, algorithm, bit in rows:
        action = program.actions[program.tables[table].default_action]
        hash_, read = action.primitives
        assert hash_.algorithm == algorithm
        assert hash_.inputs == fragment.key_fields
        assert (read.register, read.dst) == (register, bit)
