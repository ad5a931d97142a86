"""Profiling-engine semantics: compiled match structures, the execution
plan and batched replay must be invisible to every profile.

Pins the guarantees the engine's docstrings promise:

* For every bundled program, profiling on the engine
  (``enable_compiled_tables``: compiled tables and the execution plan,
  :mod:`repro.sim.plan`) yields a :class:`~repro.core.profiler.Profile`
  with ``same_behavior_as`` the reference interpreter's — and the
  per-packet :class:`~repro.sim.switch.SwitchResult` stream is
  bit-identical, as are registers, controller queue and lookup counts
  afterwards.
* Register state advances exactly: a sketch threshold trips on the same
  packet on both.
* The profile every verb builds — a fold over each packet's step log
  — equals the §3.1 instrumented replay
  (:func:`~repro.core.instrument.reference_profile`) view by view,
  on the same inputs as the bit-identity tests.
* ``reset_state`` clears the perf counters along with the registers.
* :class:`~repro.sim.match.CompiledTable` reproduces the reference
  :func:`~repro.sim.match.lookup` ranking bit-for-bit on randomized
  tables of every strategy shape (exact / single-LPM / ternary / mixed).
* The knobs of the retired flow-result cache (DESIGN.md §12) stay
  removed.

Test names that say "cached" / "uncached" mean the engine / the
reference; they are kept so the suite's history stays comparable.
"""

from __future__ import annotations

import importlib
import random

import pytest

from repro import cli, sim
from repro.core.instrument import reference_profile
from repro.core.profiler import PerfCounters, Profiler
from repro.fuzz.generator import generate_case
from repro.p4 import Apply, ModifyField, ParamRef, ProgramBuilder, Seq
from repro.p4.expressions import FieldRef
from repro.p4.tables import MatchKind, Table, TableKey
from repro.programs import (
    enterprise,
    example_firewall,
    failure_detection,
    nat_gre,
    sourceguard,
    telemetry,
)
from repro.sim import BehavioralSwitch
from repro.sim.switch import StepSink
from repro.sim.match import compile_table, lookup
from repro.sim.runtime import RuntimeConfig, TableEntry
from repro.traffic.generators import dns_stream

#: Every bundled program module (build_program / runtime_config /
#: make_trace).  Trace sizes are scaled down from the modules' defaults —
#: equivalence holds packet by packet, so a shorter prefix of the same
#: deterministic trace loses no coverage.
PROGRAM_MODULES = {
    "example_firewall": example_firewall,
    "nat_gre": nat_gre,
    "sourceguard": sourceguard,
    "failure_detection": failure_detection,
    "telemetry": telemetry,
    "enterprise": enterprise,
}
EQUIVALENCE_TRACE_SIZE = 1500


def _fresh_config(module, program):
    """Each call returns an independent config (sourceguard's and
    enterprise's need the program for hashed register inits)."""
    try:
        return module.runtime_config(program)
    except TypeError:
        return module.runtime_config()


def _reference(config):
    config.enable_compiled_tables = False
    return config


class ghost_write:
    """Fuzz find (seed 29), shaped like a program module: an action
    writes a field of a header that is *invalid* on the taken parse
    path.  The interpreter creates that header's field dict in the PHV,
    but the header stays invalid: neither side may deparse it."""

    @staticmethod
    def build_program():
        b = ProgramBuilder("ghost_write")
        b.header_type("h0_t", [("nxt", 8), ("f0", 32)])
        b.header("h0", "h0_t")
        b.header_type("h2_t", [("f0", 16)])
        b.header("h2", "h2_t")
        b.parser_state(
            "start", extracts=["h0"], select="h0.nxt",
            transitions={20: "parse_h2"},
        )
        b.parser_state("parse_h2", extracts=["h2"])
        b.parser_start("start")
        b.action(
            "ghost",
            [ModifyField(FieldRef("h2", "f0"), ParamRef("value"))],
            parameters=["value"],
        )
        b.table(
            "t0",
            keys=[(FieldRef("h0", "f0"), "exact")],
            actions=["ghost"],
            default_action="ghost",
            default_action_args=(49,),
            size=16,
        )
        b.ingress(Seq([Apply("t0")]))
        return b.build()

    @staticmethod
    def runtime_config():
        return RuntimeConfig()

    @staticmethod
    def make_trace(_packets):
        # Two packets of one flow (same key bytes; h0.nxt != 20, so h2
        # is never extracted) with different payload lengths.
        head = bytes([0xFF]) + (0x11223344).to_bytes(4, "big")
        return [head, head + b"\xaa\xbb"]


def _result_fingerprint(result):
    return (
        result.output_bytes,
        result.steps,
        result.forwarding_decision(),
        result.controller_reason,
    )


# ----------------------------------------------------------------------
# Equivalence: engine == reference, for every bundled program.


@pytest.mark.parametrize("name", sorted(PROGRAM_MODULES))
def test_cached_profile_same_behavior_as_uncached(name):
    module = PROGRAM_MODULES[name]
    program = module.build_program()
    trace = module.make_trace(EQUIVALENCE_TRACE_SIZE)

    engine = Profiler(program, _fresh_config(module, program)).run(trace)
    reference = Profiler(
        program, _reference(_fresh_config(module, program))
    ).run(trace)

    assert engine.same_behavior_as(reference), engine.behavior_diff(reference)
    assert reference.same_behavior_as(engine)


BIT_IDENTITY_INPUTS = {**PROGRAM_MODULES, "ghost_write": ghost_write}


def _assert_tiers_bit_identical(program, fresh_config, trace):
    """The engine and the reference agree on the full per-packet
    observable stream (bytes out, steps, forwarding) and on the register
    state the replay leaves behind."""
    reference = BehavioralSwitch(program, _reference(fresh_config()))
    expected = reference.process_many(trace)
    engine = BehavioralSwitch(program, fresh_config())
    assert engine.config.enable_compiled_tables
    results = engine.process_many(trace)
    assert len(results) == len(expected)
    for got, want in zip(results, expected):
        assert _result_fingerprint(got) == _result_fingerprint(want)
    assert engine.state.snapshot() == reference.state.snapshot()


@pytest.mark.parametrize("name", sorted(BIT_IDENTITY_INPUTS))
def test_cached_results_bit_identical_to_uncached(name):
    module = BIT_IDENTITY_INPUTS[name]
    program = module.build_program()
    _assert_tiers_bit_identical(
        program,
        lambda: _fresh_config(module, program),
        module.make_trace(600),
    )


@pytest.mark.parametrize("seed", range(25))
def test_generated_programs_bit_identical_across_tiers(seed):
    """The same check over the fuzz generator's programs, which reach
    corners (ghost writes, added/removed headers, egress tables) the
    bundled ones do not."""
    case = generate_case(seed)
    _assert_tiers_bit_identical(case.program, case.config.clone, case.trace)


# ----------------------------------------------------------------------
# The step-log fold == the §3.1 instrumented replay, on the same inputs.


def _assert_fold_matches_reference(program, fresh_config, trace):
    """Every aggregate the instrumented reference reads off its
    profiling bits equals the ``Profile`` view of the same name."""
    folded = Profiler(program, fresh_config()).run(trace)
    assert PerfCounters.of([folded]).packets == len(trace)
    reference = reference_profile(program, fresh_config(), trace)
    assert set(reference) >= {
        "total_packets", "apply_counts", "hit_counts", "action_counts",
        "nonexclusive_sets", "decisions",
    }
    for name, value in reference.items():
        assert getattr(folded, name) == value, name


@pytest.mark.parametrize("name", sorted(BIT_IDENTITY_INPUTS))
def test_step_log_profile_equals_instrumented_reference(name):
    module = BIT_IDENTITY_INPUTS[name]
    program = module.build_program()
    _assert_fold_matches_reference(
        program,
        lambda: _fresh_config(module, program),
        module.make_trace(600),
    )


@pytest.mark.parametrize("seed", range(25))
def test_generated_step_log_profile_equals_instrumented_reference(seed):
    case = generate_case(seed)
    _assert_fold_matches_reference(
        case.program, case.config.clone, case.trace
    )


def test_sketch_threshold_drops_match_the_reference():
    """A pure-DNS trace walks the Count-Min Sketch on every packet:
    early queries pass, the flow is dropped once its sketch estimate
    reaches the threshold, and the drop pattern matches the reference
    packet for packet."""
    program = example_firewall.build_program()
    src = example_firewall.HEAVY_DNS_SRC
    dst = example_firewall.HEAVY_DNS_DST
    trace = dns_stream(src, dst, example_firewall.DNS_QUERY_THRESHOLD + 72)

    engine = BehavioralSwitch(program, example_firewall.runtime_config())
    engine_results = engine.process_many(trace)
    reference = BehavioralSwitch(
        program, _reference(example_firewall.runtime_config())
    )
    reference_results = reference.process_many(trace)

    assert not engine_results[0].dropped
    assert engine_results[-1].dropped
    assert [r.dropped for r in engine_results] == [
        r.dropped for r in reference_results
    ]


def test_reset_state_restarts_the_packet_index():
    """A ``StepSink`` batch hands out the indices a result batch would;
    ``reset_state`` starts them over, with the registers."""
    program = example_firewall.build_program()
    switch = BehavioralSwitch(program, example_firewall.runtime_config())
    trace = example_firewall.make_trace(100)

    switch.process_many(trace, into=StepSink())
    assert switch.process_many(trace[:1])[0].index == len(trace)

    switch.reset_state()
    assert switch.process_many(trace[:1])[0].index == 0


def test_removed_engine_knobs_stay_removed(capsys):
    """The flow-result cache was retired on measurement (DESIGN.md
    §12); guard its surface against drifting back."""
    config = RuntimeConfig()
    for knob in ("enable_flow_cache", "flow_cache_capacity"):
        assert not hasattr(config, knob)
    for name in ("FlowCache", "FlowVerdict"):
        assert not hasattr(sim, name)
    with pytest.raises(ImportError):
        importlib.import_module("repro.sim.flowcache")
    with pytest.raises(SystemExit) as refused:
        cli.build_arg_parser().parse_args(
            ["profile", "prog.p4", "--trace", "t.pcap", "--no-cache"]
        )
    assert refused.value.code == 2
    assert "--no-cache" in capsys.readouterr().err


# ----------------------------------------------------------------------
# CompiledTable vs the reference lookup() scan.

_KINDS = {
    "exact": MatchKind.EXACT,
    "lpm": MatchKind.LPM,
    "ternary": MatchKind.TERNARY,
}

#: One shape per CompiledTable strategy plus the awkward corners:
#: multi-key exact, exact+LPM (single-LPM fast path), multi-LPM and
#: LPM+ternary (both forced onto the premasked scan).
TABLE_SHAPES = {
    "exact": (("exact", 16),),
    "multi_exact": (("exact", 8), ("exact", 16)),
    "single_lpm": (("lpm", 32),),
    "exact_plus_lpm": (("exact", 8), ("lpm", 32)),
    "multi_lpm": (("lpm", 16), ("lpm", 16)),
    "ternary": (("ternary", 16),),
    "mixed": (("exact", 8), ("lpm", 32), ("ternary", 16)),
}


def _random_entry(rng, shape):
    match = []
    for kind_name, width in shape:
        top = (1 << width) - 1
        if kind_name == "exact":
            match.append(rng.randint(0, top))
        elif kind_name == "lpm":
            match.append((rng.randint(0, top), rng.choice(
                [0, rng.randint(1, width), width]
            )))
        else:
            match.append((rng.randint(0, top), rng.randint(0, top)))
    return TableEntry(tuple(match), "act", (), priority=rng.randint(0, 7))


def _probe_near_entry(rng, shape, entry):
    """A key-value tuple biased to match ``entry`` (free bits random)."""
    values = []
    for (kind_name, width), spec in zip(shape, entry.match):
        top = (1 << width) - 1
        if kind_name == "exact":
            values.append(spec)
        elif kind_name == "lpm":
            value, plen = spec
            mask = (((1 << plen) - 1) << (width - plen)) if plen else 0
            values.append((value & mask) | (rng.randint(0, top) & ~mask))
        else:
            value, mask = spec
            values.append((value & mask) | (rng.randint(0, top) & ~mask))
    return tuple(values)


@pytest.mark.parametrize("shape_name", sorted(TABLE_SHAPES))
def test_compiled_table_matches_reference_lookup(shape_name):
    shape = TABLE_SHAPES[shape_name]
    rng = random.Random(hash(shape_name) & 0xFFFF)
    keys = tuple(
        TableKey(FieldRef("h", f"f{i}"), _KINDS[kind_name])
        for i, (kind_name, _width) in enumerate(shape)
    )
    widths = [width for _kind, width in shape]
    table = Table(name=shape_name, keys=keys, actions=("act",), size=128)

    for _round in range(5):
        entries = [_random_entry(rng, shape) for _ in range(40)]
        match = compile_table(table, widths, entries, lambda e: e).match
        probes = [
            tuple(rng.randint(0, (1 << w) - 1) for w in widths)
            for _ in range(60)
        ] + [
            _probe_near_entry(rng, shape, rng.choice(entries))
            for _ in range(60)
        ]
        for values in probes:
            expected = lookup(table, widths, values, entries)
            key = values[0] if len(values) == 1 else tuple(values)
            assert match(key) == expected, (
                f"{shape_name}: compiled disagrees with reference scan "
                f"for key {values}"
            )
