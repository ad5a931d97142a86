"""What a phase-3 probe reuses from its parent (DESIGN.md §16, §5).

A resize carries its parent's size-free pins — the register -> tables
map and each table's per-entry memory facts — and a table resize shares
its parent's profile.  Each oracle here holds what a probe reuses to
what a program sharing nothing with its parent derives from scratch.
"""

import pickle
from collections import OrderedDict

import pytest

import repro.sim.plan as plan_module
import repro.sim.switch as switch_module
import repro.target.resources as resources_module
from repro import programs
from repro.analysis.structure import analyse
from repro.core.fleet import family_inputs
from repro.core.phase_memory import MemoryReduction
from repro.core.pipeline import P2GO
from repro.core.profiler import Profiler
from repro.core.session import OptimizationContext, Source
from repro.core.store import SessionStore
from repro.exceptions import RuntimeConfigError
from repro.fuzz.generator import generate_case
from repro.p4.dsl import parse_program, print_program
from repro.p4.dsl.printer import profile_key, program_fingerprint
from repro.programs import example_firewall as fw
from repro.sim.runtime import RuntimeConfig, TableEntry
from repro.sim.switch import BehavioralSwitch
from repro.target import (
    compile_program,
    compute_footprints,
    table_entry_bits,
    table_match_bytes,
    table_overhead_bytes,
)

FAMILIES = [n for n in programs.__all__ if n != "EXAMPLE_TARGET"]


def bundled(family):
    return family_inputs(family, packets=600)


def fuzzed(seed):
    case = generate_case(seed)
    return case.program, case.config, case.trace, case.target


CASES = [("family", f) for f in FAMILIES] + [
    ("seed", s) for s in range(100)
]


def inputs(case):
    kind, value = case
    return bundled(value) if kind == "family" else fuzzed(value)


def resources(program):
    """Every resource phase 3 halves (``find_candidates``): keyed tables
    and owned registers of size 2 or more, each as ``(resize, size)``,
    ``resize(program, size)`` the derivation of a probe."""
    for table in program.tables.values():
        if table.size >= 2 and table.keys:
            yield (
                lambda p, n, name=table.name: p.with_table_size(name, n),
                table.size,
            )
    for register in program.registers.values():
        if register.size >= 2 and program.tables_accessing_register(
            register.name
        ):
            yield (
                lambda p, n, name=register.name: p.with_register_size(
                    name, n
                ),
                register.size,
            )


def pristine(program):
    """``program`` re-parsed from its text: no pin of any kind."""
    return parse_program(print_program(program), program.name)


def from_scratch(program):
    """Each table's footprint fields, from the per-table formulas."""
    return {
        name: (
            table.is_ternary,
            table_entry_bits(program, table),
            table_match_bytes(program, table),
            table_overhead_bytes(program, table),
        )
        for name, table in program.tables.items()
    }


def fields(footprints):
    return {
        name: (fp.is_ternary, fp.entry_bits, fp.match_bytes, fp.overhead_bytes)
        for name, fp in footprints.items()
    }


# ----------------------------------------------------------------------
# Facts are derived once per value and carried across a resize.


@pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c[0]}-{c[1]}")
def test_a_halving_compiles_as_a_pin_free_program(case, monkeypatch):
    """Each halving, and a halving of it, has the footprints (by the
    per-table formulas) and the allocation of the same program parsed
    afresh, while deriving no memory fact of its own: they come from
    the parent."""
    program, _config, _trace, target = inputs(case)
    compute_footprints(program)  # pins the parent's facts
    derived = [resize(program, size // 2) for resize, size in resources(program)]
    derived += [
        resize(resize(program, size // 2), size // 4)
        for resize, size in resources(program)
        if size >= 4
    ]
    analysis = analyse(pristine(program))
    expected = [
        (from_scratch(fresh), compile_program(fresh, target, analysis))
        for fresh in map(pristine, derived)
    ]
    monkeypatch.setattr(
        resources_module, "_memory_facts",
        lambda _program: pytest.fail("a resize re-derived its facts"),
    )
    for resized, (footprints, compiled) in zip(derived, expected):
        assert resized.__dict__["_memory_facts"] is (
            program.__dict__["_memory_facts"]
        )
        assert fields(compute_footprints(resized)) == footprints
        assert compile_program(resized, target, analysis) == compiled


def test_an_action_derives_its_accesses_once_and_pickles_without_them():
    program = fw.build_program()
    action = program.actions["dns_cms_update0"]
    assert action.registers_written() is action.registers_written()
    assert action.reads() == frozenset().union(
        *(prim.reads() for prim in action.primitives)
    )
    assert "_access" in vars(action)
    for unshared in (pickle.loads(pickle.dumps(action)),
                     pickle.loads(pickle.dumps(program)).actions[action.name]):
        assert "_access" not in vars(unshared)
        assert unshared.writes() == action.writes()


def test_the_register_map_is_one_lookup_and_stays_local():
    program = fw.build_program()
    rows = sorted(program.registers)
    owners = {name: program.tables_accessing_register(name) for name in rows}
    resized = program.with_register_size(rows[0], 8).with_table_size(
        "IPv4", 64
    )
    assert resized.__dict__["_register_tables"] is (
        program.__dict__["_register_tables"]
    )
    assert {n: resized.tables_accessing_register(n) for n in rows} == owners
    assert pristine(resized).tables_accessing_register(rows[0]) == (
        owners[rows[0]]
    )
    unpickled = pickle.loads(pickle.dumps(program))
    assert "_register_tables" not in vars(unpickled)
    assert "_memory_facts" not in vars(unpickled)


# ----------------------------------------------------------------------
# A table resize shares its parent's profile.


def test_the_profile_key_omits_table_sizes_only():
    program = fw.build_program()
    table = program.with_table_size("IPv4", 64)
    register = program.with_register_size(sorted(program.registers)[0], 64)
    assert profile_key(table) == profile_key(program)
    assert program_fingerprint(table) != program_fingerprint(program)
    assert profile_key(register) != profile_key(program)
    # Content-based: an equal program parsed afresh shares it.
    assert profile_key(pristine(table)) == profile_key(program)


@pytest.mark.parametrize("family", FAMILIES)
def test_every_table_halving_shares_a_profile_equal_to_its_replay(family):
    """Each table halving phase 3 may verify (never below the entries
    the config installs) is a memo hit on the parent's profile, and
    that profile equals a fresh replay of the resized program — the
    replay ``drift.recheck`` keeps."""
    program, config, trace, target = bundled(family)
    with OptimizationContext(program, config, trace, target) as ctx:
        parent = ctx.profile(program, config)
        checked = 0
        for table in program.tables.values():
            size = max(table.size // 2, config.entry_count(table.name), 1)
            if not table.keys or size == table.size:
                continue
            resized = program.with_table_size(table.name, size)
            mark = len(ctx.probes)
            assert ctx.profile(resized, config) is parent
            assert ctx.probes[mark].source is Source.MEMO
            assert parent == Profiler(resized, config).run(trace)
            checked += 1
    assert checked


def test_a_verified_table_resize_replays_nothing():
    """The firewall's accepted ``IPv4`` cut is verified on its parent's
    profile: a cold run executes three profiles.  (Four while phase 2
    replayed its relocation; the relocation now adopts its parent's
    profile, ``tests/test_relocation_profiles.py``.)"""
    result = P2GO(
        fw.build_program(), fw.runtime_config(), fw.make_trace(4000),
        fw.TARGET, store=False,
    ).run()
    assert [
        (d.candidate.name, d.candidate.new_size)
        for d in result.applied
        if isinstance(d.candidate, MemoryReduction)
    ] == [("IPv4", 128)]
    assert result.session_counters.profile_executions == 3


def overfull(program, config):
    """``program`` with ``IPv4`` one entry short of ``config``'s."""
    return program.with_table_size("IPv4", config.entry_count("IPv4") - 1)


def raised(call):
    with pytest.raises(RuntimeConfigError) as info:
        call()
    return str(info.value)


def test_a_config_too_full_for_a_resize_still_raises(tmp_path):
    """A shared key must not hand a profile to a program the config
    does not fit: with nothing stored, with the parent's profile in the
    memo and with it in the store, the probe raises what building the
    switch raises."""
    program, config = fw.build_program(), fw.runtime_config()
    trace = fw.make_trace(300)
    small = overfull(program, config)
    expected = raised(lambda: BehavioralSwitch(small, config))
    assert "entries exceed declared size" in expected

    store = SessionStore(tmp_path / "store")
    with OptimizationContext(program, config, trace, store=store) as ctx:
        assert raised(lambda: ctx.profile(small, config)) == expected
        ctx.profile(program, config)
        assert raised(lambda: ctx.profile(small, config)) == expected
    with OptimizationContext(program, config, trace, store=store) as warm:
        assert raised(lambda: warm.profile(small, config)) == expected
        warm.profile(program, config)
        assert warm.counters.profile_disk_hits == 1


# ----------------------------------------------------------------------
# Switch construction: validation and the parser, once per value.


@pytest.fixture
def validations(monkeypatch):
    """Calls of ``RuntimeConfig.validate`` from an empty memo."""
    monkeypatch.setattr(switch_module, "_validated", OrderedDict())
    calls = []
    real = RuntimeConfig.validate

    def counting(self, program):
        calls.append(program.name)
        real(self, program)

    monkeypatch.setattr(RuntimeConfig, "validate", counting)
    return calls


def test_a_pair_is_validated_once_per_content_key(validations):
    program, config = fw.build_program(), fw.runtime_config()
    for _ in range(3):
        BehavioralSwitch(program, config)
    BehavioralSwitch(pristine(program), fw.runtime_config())
    assert len(validations) == 1
    BehavioralSwitch(program.with_table_size("IPv4", 128), config)
    assert len(validations) == 2


def test_a_config_that_fails_raises_on_every_construction(validations):
    program, config = fw.build_program(), fw.runtime_config()
    small = overfull(program, config)
    for _ in range(2):
        with pytest.raises(RuntimeConfigError):
            BehavioralSwitch(small, config)
    assert len(validations) == 2
    # A rule poked in behind the API is seen at the next construction.
    BehavioralSwitch(program, config)
    config.entries["IPv4"][0] = TableEntry(match=(1, 2, 3), action="nope")
    for _ in range(2):
        with pytest.raises(RuntimeConfigError):
            BehavioralSwitch(program, config)


def test_the_parser_is_built_once_per_program_value(monkeypatch):
    built = []
    real = plan_module._build_parser

    def counting(program):
        built.append(program.name)
        return real(program)

    monkeypatch.setattr(plan_module, "_build_parser", counting)
    program = fw.build_program()
    first = BehavioralSwitch(program, fw.runtime_config())
    second = BehavioralSwitch(program, fw.runtime_config())
    assert first._parser is second._parser
    assert built == [program.name]
    assert "_parse" not in vars(pickle.loads(pickle.dumps(program)))
