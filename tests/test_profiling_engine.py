"""Profiling-engine semantics: the flow-result cache, compiled match
structures, and batched replay must be invisible to every profile.

Pins the guarantees the engine's docstrings promise:

* For every bundled program, profiling with the cache + compiled tables
  on yields a :class:`~repro.core.profiler.Profile` with
  ``same_behavior_as`` the uncached reference run — and the per-packet
  :class:`~repro.sim.switch.SwitchResult` stream is bit-identical, as
  are registers, controller queue and lookup counts afterwards, in all
  three configurations: both tiers on, tier 2 (compiled tables and the
  execution plan, :mod:`repro.sim.plan`) alone, both off.
* Admission: a verdict is built on a key's second sighting and replayed
  from the third; stateful traversals (anything that reads or writes a
  register) are never served from the cache, mark their key so it never
  builds again, and drop nobody else's verdict.
* ``reset_state`` clears the cache — marks included — and the perf
  counters along with the registers; config mutations through the
  ``RuntimeConfig`` API invalidate cached verdicts and marks; the
  capacity bound counts marks and actually evicts.
* :class:`~repro.sim.match.CompiledTable` reproduces the reference
  :func:`~repro.sim.match.lookup` ranking bit-for-bit on randomized
  tables of every strategy shape (exact / single-LPM / ternary / mixed).
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.core.profiler import Profiler
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
from repro.sim import switch as switch_module
from repro.sim.flowcache import SEEN, STATEFUL, FlowVerdict
from repro.sim.match import compile_table, lookup
from repro.sim.runtime import RuntimeConfig, TableEntry
from repro.traffic.generators import dns_stream, udp_background

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


def _uncached(config):
    config.enable_flow_cache = False
    config.enable_compiled_tables = False
    return config


class ghost_write:
    """Fuzz find (seed 29), shaped like a program module: an action
    writes a field of a header that is *invalid* on the taken parse
    path.  The interpreter creates that header's field dict in the PHV
    (the header stays invalid and is never deparsed), so a replayed
    verdict must materialize it on ``result.headers`` too."""

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
        # is never extracted) with different payload lengths: the first
        # misses and caches the verdict, the second replays it.
        head = bytes([0xFF]) + (0x11223344).to_bytes(4, "big")
        return [head, head + b"\xaa\xbb"]


def _compiled_only(config):
    """Tier 2 without tier 3: every packet runs the execution plan."""
    config.enable_flow_cache = False
    return config


def _result_fingerprint(result):
    return (
        result.output_bytes,
        result.headers,
        result.valid,
        result.steps,
        result.forwarding_decision(),
        result.controller_reason,
    )


# ----------------------------------------------------------------------
# Equivalence: cache on == cache off, for every bundled program.


@pytest.mark.parametrize("name", sorted(PROGRAM_MODULES))
def test_cached_profile_same_behavior_as_uncached(name):
    module = PROGRAM_MODULES[name]
    program = module.build_program()
    trace = module.make_trace(EQUIVALENCE_TRACE_SIZE)

    cached = Profiler(program, _fresh_config(module, program)).profile(trace)
    uncached = Profiler(
        program, _uncached(_fresh_config(module, program))
    ).profile(trace)

    assert cached.same_behavior_as(uncached), cached.behavior_diff(uncached)
    assert uncached.same_behavior_as(cached)


BIT_IDENTITY_INPUTS = {**PROGRAM_MODULES, "ghost_write": ghost_write}


def _assert_tiers_bit_identical(program, fresh_config, trace):
    """Both tiers on, tier 2 alone and the reference agree on the full
    per-packet observable stream (bytes out, steps, headers,
    forwarding) and on what the replay leaves behind in the switch."""
    reference = BehavioralSwitch(program, _uncached(fresh_config()))
    expected = reference.process_many(trace)
    for tier in (lambda config: config, _compiled_only):
        engine = BehavioralSwitch(program, tier(fresh_config()))
        results = engine.process_many(trace)
        assert len(results) == len(expected)
        for got, want in zip(results, expected):
            assert _result_fingerprint(got) == _result_fingerprint(want)
        assert engine.state.snapshot() == reference.state.snapshot()
        assert engine.controller_queue == reference.controller_queue
        if not engine.config.enable_flow_cache:
            # A cached verdict replays without looking anything up.
            assert (
                engine.perf.table_lookups == reference.perf.table_lookups
            )


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
    """The same three-way check over the fuzz generator's programs,
    which reach corners (ghost writes, added/removed headers, egress
    tables) the bundled ones do not."""
    case = generate_case(seed)
    _assert_tiers_bit_identical(case.program, case.config.clone, case.trace)


# ----------------------------------------------------------------------
# Admission and the stateful mark.


@pytest.fixture
def verdicts_built(monkeypatch):
    """Every ``build_verdict`` call the switch makes, as its arguments."""
    built = []

    def counting(*args):
        built.append(args)
        return build(*args)

    build = switch_module.build_verdict
    monkeypatch.setattr(switch_module, "build_verdict", counting)
    return built


def _firewall_switch():
    return BehavioralSwitch(
        example_firewall.build_program(), example_firewall.runtime_config()
    )


def _stateless_packets(count, seed=3):
    """Distinct stateless flows (the source address is random)."""
    return udp_background(count, random.Random(seed), dst_ports=(4000,))


def _entry(switch, packet, port=0):
    return switch._flow_cache.get(switch._flow_key(switch._parse(packet), port))


def test_verdicts_built_at_most_once_per_key_sighted_twice(verdicts_built):
    """The deterministic pin of the gain: on the paper's firewall trace
    almost no key repeats, so almost no verdict is built — one per key
    that came back, never one per miss."""
    switch = _firewall_switch()
    trace = example_firewall.make_trace(4000)
    sightings = Counter(
        switch._flow_key(switch._parse(data), port)
        for data, port in (
            entry if isinstance(entry, tuple) else (entry, 0)
            for entry in trace
        )
    )
    repeated = sum(1 for count in sightings.values() if count >= 2)

    switch.process_many(trace)
    assert switch.perf.cache_misses > 10 * len(verdicts_built)
    assert len(verdicts_built) <= repeated
    # Every replay is a sighting past the second of a stateless key.
    assert switch.perf.cache_hits <= sum(
        count - 2 for count in sightings.values() if count > 2
    )

def test_stateless_flow_is_admitted_on_second_sighting(verdicts_built):
    """1st / 2nd / 3rd packet of a flow: miss, miss + admit, replay."""
    switch = _firewall_switch()
    packet = _stateless_packets(1)[0]

    switch.process(packet)
    assert _entry(switch, packet) is SEEN
    assert (switch.perf.cache_hits, switch.perf.cache_misses) == (0, 1)
    assert len(verdicts_built) == 0

    switch.process(packet)
    assert isinstance(_entry(switch, packet), FlowVerdict)
    assert (switch.perf.cache_hits, switch.perf.cache_misses) == (0, 2)
    assert len(verdicts_built) == 1

    switch.process(packet)
    assert (switch.perf.cache_hits, switch.perf.cache_misses) == (1, 2)
    assert len(verdicts_built) == 1


def test_stateful_flows_never_served_from_cache(verdicts_built):
    """A pure-DNS trace walks the Count-Min Sketch on every packet; the
    key is marked stateful on its second sighting and the cache sits
    out entirely, yet the threshold drops stay exact."""
    program = example_firewall.build_program()
    src = example_firewall.HEAVY_DNS_SRC
    dst = example_firewall.HEAVY_DNS_DST
    trace = dns_stream(src, dst, example_firewall.DNS_QUERY_THRESHOLD + 72)

    engine = BehavioralSwitch(program, example_firewall.runtime_config())
    engine_results = engine.process_many(trace[:1])
    assert _entry(engine, trace[0]) is SEEN
    engine_results += engine.process_many(trace[1:])
    reference = BehavioralSwitch(
        program, _uncached(example_firewall.runtime_config())
    )
    reference_results = reference.process_many(trace)

    # Every packet executed; nothing was memoized, nothing replayed,
    # and no verdict was ever built for the flow.
    assert engine.perf.cache_hits == 0
    assert engine.perf.cache_misses == len(trace)
    assert {_entry(engine, packet) for packet in trace} == {STATEFUL}
    assert len(engine._flow_cache) == 1
    assert verdicts_built == []

    # State still advanced exactly: early queries pass, the flow is
    # dropped once its sketch estimate reaches the threshold, and the
    # drop pattern matches the uncached interpreter packet for packet.
    assert not engine_results[0].dropped
    assert engine_results[-1].dropped
    assert [r.dropped for r in engine_results] == [
        r.dropped for r in reference_results
    ]


def test_stateful_traversal_keeps_cached_verdicts():
    """A register-touching packet between two stateless ones of a cached
    flow no longer costs them their verdict: no register write can
    change a traversal that reads no register."""
    switch = _firewall_switch()
    stateless = _stateless_packets(1)[0]
    dns = dns_stream(0x0A000001, 0xC0A80001, 1)[0]

    for _ in range(3):
        switch.process(stateless)
    assert switch.perf.cache_hits == 1  # admitted on the second, replayed

    switch.process(dns)
    switch.process(dns)
    assert _entry(switch, dns) is STATEFUL

    switch.process(stateless)
    assert switch.perf.cache_hits == 2  # the verdict survived
    assert switch.perf.cache_misses == 4


def test_cache_disabled_never_engages():
    program = example_firewall.build_program()
    switch = BehavioralSwitch(
        program, _uncached(example_firewall.runtime_config())
    )
    switch.process_many(example_firewall.make_stateless_trace(50))
    assert switch.perf.cache_hits == 0
    assert switch.perf.cache_misses == 0
    assert switch.perf.cache_hit_rate() == 0.0


# ----------------------------------------------------------------------
# Lifecycle: reset, config mutation, capacity.


def test_reset_state_clears_flow_cache_and_perf_counters():
    program = example_firewall.build_program()
    switch = BehavioralSwitch(program, example_firewall.runtime_config())
    trace = example_firewall.make_stateless_trace(100, flows=8)

    switch.process_many(trace)
    assert switch.perf.packets == len(trace)
    assert switch.perf.cache_hits > 0

    switch.reset_state()
    assert switch.perf.packets == 0
    assert switch.perf.cache_hits == 0
    assert switch.perf.elapsed_seconds == 0.0
    assert len(switch._flow_cache) == 0

    # The first two packets of a flow after reset must miss — neither a
    # verdict nor a first-sighting mark survived.
    first, port = trace[0] if isinstance(trace[0], tuple) else (trace[0], 0)
    switch.process(first, port)
    assert _entry(switch, first, port) is SEEN
    switch.process(first, port)
    assert switch.perf.cache_hits == 0
    assert switch.perf.cache_misses == 2


def test_config_mutation_invalidates_cached_verdicts():
    """A rule installed after a verdict was cached must take effect on
    the very next packet of that flow."""
    program = example_firewall.build_program()
    config = example_firewall.runtime_config()
    switch = BehavioralSwitch(program, config)
    rng = random.Random(5)
    packet = udp_background(1, rng, dst_ports=(4000,))[0]

    before = switch.process(packet)
    assert not before.dropped
    switch.process(packet)
    switch.process(packet)
    assert switch.perf.cache_hits == 1  # verdict is cached
    other = _stateless_packets(1, seed=6)[0]
    switch.process(other)
    assert _entry(switch, other) is SEEN

    config.add_entry("ACL_UDP", [4000], "acl_udp_drop")
    after = switch.process(packet)
    assert after.dropped  # a stale cached verdict would forward it
    # Marks went with the verdicts: both flows start over.
    assert _entry(switch, packet) is SEEN
    assert _entry(switch, other) is None


def test_flow_cache_capacity_bound_evicts():
    program = example_firewall.build_program()
    config = example_firewall.runtime_config()
    config.flow_cache_capacity = 4
    switch = BehavioralSwitch(program, config)

    switch.process_many(example_firewall.make_stateless_trace(400, flows=64))
    assert switch.perf.cache_evictions > 0
    assert len(switch._flow_cache) <= 4


def test_marks_count_toward_capacity_and_evictions():
    """Five distinct first sightings against a capacity of four: the
    fifth mark flushes the other four and is counted as an eviction."""
    config = example_firewall.runtime_config()
    config.flow_cache_capacity = 4
    switch = BehavioralSwitch(example_firewall.build_program(), config)
    packets = _stateless_packets(5)

    for packet in packets[:4]:
        switch.process(packet)
    assert len(switch._flow_cache) == 4
    assert switch.perf.cache_evictions == 0

    switch.process(packets[4])
    assert switch.perf.cache_evictions == 1
    assert len(switch._flow_cache) == 1
    assert _entry(switch, packets[4]) is SEEN
    assert _entry(switch, packets[0]) is None


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
        compiled = compile_table(table, widths, entries)
        probes = [
            tuple(rng.randint(0, (1 << w) - 1) for w in widths)
            for _ in range(60)
        ] + [
            _probe_near_entry(rng, shape, rng.choice(entries))
            for _ in range(60)
        ]
        for values in probes:
            expected = lookup(table, widths, values, entries)
            assert compiled.lookup(values) == expected, (
                f"{shape_name}: compiled disagrees with reference scan "
                f"for key {values}"
            )
