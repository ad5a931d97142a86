"""The engine's execution plan (:mod:`repro.sim.plan`) against the walker.

The bit-identity of whole replays lives in
``tests/test_profiling_engine.py``; this file pins what that cannot:

* the capture rules — what a run can change (perf counters, register
  arrays) is looked up per packet, and what the config fixes (default
  actions, entries) is bound until the config changes, so a reset or a
  rule installed mid-run or between batches behaves exactly as on the
  reference walk;
* a bad rule installed mid-run is a ``RuntimeConfigError`` before any
  packet is touched, not a ``KeyError`` from inside the traversal;
* errors only a packet can trigger surface as the same
  ``SimulationError`` at the same packet index on both paths;
* each shape the plan specialises at build — a validity test with and
  without an ``else``, any other test without one, an empty and a
  single-child ``Seq``, single- and multi-key tables, a constant wider
  than the field it is written to (metadata and packet header), an
  entry with action data of the wrong arity or an unknown action —
  replays exactly as on the walker, on both kinds of sink;
* control trees nested past what CPython compiles in one function, and
  errors raised inside a batch on both kinds of sink, replay as on the
  walker; a step-sink replay leaves the shared parse templates as the
  parser made them, and a traceback shows the emitted line;
* the two paths are really separate: on the engine the walker's
  ``execute_action`` is never reached, on the reference no plan is built;
* a tail is emitted once per content key: an equal-content clone binds
  the same code, with registers of its own; ``add_entry`` and a changed
  register shape emit afresh; and a traceback from a reused tail still
  shows the emitted line;
* the plan deparses from the header words: its output bytes equal the
  reference's validating ``deparse_packet`` on the nine bundled programs
  and the generated cases, plain and instrumented, and on crafted
  programs with a padded header, an auto-valid header a path does not
  extract, declarations out of extraction order, and headers added and
  removed; a packet whose written words come out as they went in is
  output as its input object; and no emitted tail touches a header dict.
"""

from __future__ import annotations

import copy
import dataclasses
import linecache
import traceback

import pytest

from repro.exceptions import RuntimeConfigError, SimulationError
from repro import programs
from repro.p4 import (
    AddHeader,
    Apply,
    BinOp,
    Const,
    Drop,
    FieldRef,
    AddToField,
    HashFields,
    If,
    LAnd,
    LNot,
    ModifyField,
    ParamRef,
    ProgramBuilder,
    RegisterRead,
    RegisterWrite,
    RemoveHeader,
    Seq,
    SetEgressPort,
    ValidExpr,
)
from repro.core.instrument import instrument
from repro.fuzz.generator import generate_case
from repro.packets.craft import udp_packet
from repro.programs import enterprise, example_firewall, nat_gre
from repro.sim import BehavioralSwitch
from repro.sim.runtime import RuntimeConfig, TableEntry
from repro.sim.switch import ReplayTrace, StepSink
from tests.test_profiling_engine import _result_fingerprint

#: A UDP packet the bundled firewall config forwards.
PACKET = udp_packet("10.0.0.1", "10.0.0.2", 1234, 4000)

#: ``enable_compiled_tables``: the engine (every packet runs the plan)
#: and the reference walk.
TIERS = {"compiled": True, "reference": False}


def _tiered(config, tier):
    config.enable_compiled_tables = TIERS[tier]
    return config


def _firewall(tier):
    return BehavioralSwitch(
        example_firewall.build_program(),
        _tiered(example_firewall.runtime_config(), tier),
    )


def _observed(switch, results):
    return (
        [(r.index, _result_fingerprint(r)) for r in results],
        switch.state.snapshot(),
    )


# ----------------------------------------------------------------------
# Capture rules.


@pytest.mark.parametrize("tier", sorted(TIERS))
def test_replay_after_reset_equals_fresh_switch(tier):
    """``reset_state`` replaces the register lists; a plan that had
    bound them would keep writing the old ones."""
    trace = example_firewall.make_trace(400, seed=3)
    switch = _firewall(tier)
    switch.process_many(trace)
    assert any(any(cells) for cells in switch.state.snapshot().values())
    switch.reset_state()
    again = _observed(switch, switch.process_many(trace))

    fresh = _firewall(tier)
    assert again == _observed(fresh, fresh.process_many(trace))


@pytest.mark.parametrize(
    "install",
    [
        lambda config: config.set_default("ACL_UDP", "acl_udp_drop"),
        lambda config: config.add_entry("ACL_UDP", [4000], "acl_udp_drop"),
    ],
    ids=["set_default", "add_entry"],
)
def test_rule_installed_mid_run_takes_effect_on_next_packet(install):
    """…identically on the engine and on the reference."""
    outcomes = {}
    for tier in TIERS:
        switch = _firewall(tier)
        before = switch.process(PACKET)
        install(switch.config)
        after = switch.process(PACKET)
        outcomes[tier] = _observed(switch, [before, after])
        assert not before.dropped
        assert after.dropped
    assert outcomes["compiled"] == outcomes["reference"]


@pytest.mark.parametrize("sink", [list, StepSink], ids=["results", "steps"])
@pytest.mark.parametrize(
    "install",
    [
        lambda config: config.set_default("ACL_UDP", "acl_udp_drop"),
        lambda config: config.add_entry("ACL_UDP", [4000], "acl_udp_drop"),
    ],
    ids=["set_default", "add_entry"],
)
def test_rule_installed_between_batches_takes_effect_on_next_batch(
    install, sink
):
    """The plan binds the compiled tables and the default actions, so a
    rule installed between two batches must rebuild it."""
    batch = [PACKET] * 3
    outcomes = {}
    for tier in TIERS:
        switch = _firewall(tier)
        before = switch.process_many(batch, into=sink())
        install(switch.config)
        after = switch.process_many(batch, into=sink())
        if sink is list:
            assert not any(r.dropped for r in before)
            assert all(r.dropped for r in after)
            before, after = (
                [(r.index, _result_fingerprint(r)) for r in results]
                for results in (before, after)
            )
        else:
            assert not any(dropped for _e, dropped, _c in before.decisions)
            assert all(dropped for _e, dropped, _c in after.decisions)
            before, after = (
                (sink.paths, sink.decisions) for sink in (before, after)
            )
        outcomes[tier] = (before, after, switch.state.snapshot())
    assert outcomes["compiled"] == outcomes["reference"]


@pytest.mark.parametrize("tier", sorted(TIERS))
@pytest.mark.parametrize(
    "install",
    [
        lambda config: config.set_default("ACL_UDP", "nonexistent_action"),
        lambda config: config.set_default("ACL_UDP", "acl_udp_drop", [1]),
        lambda config: config.add_entry("ACL_UDP", [4000], "acl_udp_drop", [1]),
    ],
    ids=["unknown_action", "default_arity", "entry_arity"],
)
def test_bad_rule_installed_mid_run_is_a_config_error(tier, install):
    """Regression: this escaped as ``KeyError('nonexistent_action')``
    from inside the traversal."""
    switch = _firewall(tier)
    switch.process(PACKET)
    install(switch.config)
    parsed = []
    switch._parser = switch._parser._replace(parse=parsed.append)
    with pytest.raises(RuntimeConfigError):
        switch.process(PACKET)
    # Rejected where the stamp change is noticed: no packet was touched.
    assert parsed == []


# ----------------------------------------------------------------------
# Error parity: same SimulationError, same packet.


def _error_program(primitives, parameters=(), condition=None):
    """One header ``h`` (``f``: 8 bits, ``g``: 8 bits), one keyed table
    ``t`` whose only action runs ``primitives``."""
    b = ProgramBuilder("error_parity")
    b.header_type("h_t", [("f", 8), ("g", 8)])
    b.header("h", "h_t")
    b.parser_state("start", extracts=["h"])
    b.register("r", width=8, size=4)
    b.action("act", primitives, parameters=parameters)
    b.table(
        "t",
        keys=[("h.g", "exact")],
        actions=["act"],
        default_action="act",
        default_action_args=(0,) * len(parameters),
        size=8,
    )
    node = Apply("t")
    b.ingress(Seq([If(condition, node) if condition is not None else node]))
    return b.build()


H_F, H_G = FieldRef("h", "f"), FieldRef("h", "g")

ERROR_CASES = {
    # Only the walker's short circuit keeps f != 7 packets alive.
    "unbound_param": lambda: (
        _error_program(
            [ModifyField(H_G, Const(1))],
            condition=LAnd(BinOp("==", H_F, Const(7)), ParamRef("ghost")),
        ),
        None,
        "has no bound value",
    ),
    # An entry poked in behind the config API (no validation, no
    # stamp) whose action data is one argument short.
    "arity_mismatch": lambda: (
        _error_program([ModifyField(H_F, ParamRef("v"))], parameters=["v"]),
        TableEntry(match=(7,), action="act", action_args=()),
        "takes 1 args, got 0",
    ),
    "register_index_out_of_range": lambda: (
        _error_program([RegisterRead(H_G, "r", H_F)]),
        None,
        "out of range",
    ),
    "unknown_hash_algorithm": lambda: (
        _error_program(
            [HashFields(H_G, "md5", (H_F,), Const(4))],
            condition=BinOp("==", H_F, Const(7)),
        ),
        None,
        "unknown hash algorithm",
    ),
    "hash_modulo_not_positive": lambda: (
        _error_program([HashFields(H_G, "crc32", (H_G,), H_F)]),
        None,
        "modulo must be positive",
    ),
}

#: ``h.f`` then ``h.g`` per packet.  Packet 1 hits the poked entry
#: (g == 7); packet 3 trips the cases selected or indexed by f == 7
#: (index 7 overruns the 4-cell register); packet 4's f == 0 is the
#: non-positive modulo.  Everything before passes on every tier.
ERROR_TRACE = [bytes([1, 1]), bytes([2, 7]), bytes([3, 3]), bytes([7, 7]),
               bytes([0, 5])]


@pytest.mark.parametrize("case", sorted(ERROR_CASES))
def test_packet_triggered_errors_match_the_walker(case):
    program, poked_entry, message = ERROR_CASES[case]()
    failures = {}
    for tier in TIERS:
        switch = BehavioralSwitch(program, _tiered(RuntimeConfig(), tier))
        if poked_entry is not None:
            switch.config.entries.setdefault("t", []).append(poked_entry)
        passed = 0
        with pytest.raises(SimulationError) as raised:
            for packet in ERROR_TRACE:
                switch.process(packet)
                passed += 1
        assert message in str(raised.value)
        failures[tier] = (passed, str(raised.value))
    assert failures["compiled"] == failures["reference"]


#: Every per-packet error, raised inside a batch.  ``unknown_register``
#: drops ``r`` from the switch's state behind the program's back.
BATCH_ERROR_CASES = {
    **ERROR_CASES,
    "register_write_out_of_range": lambda: (
        _error_program([RegisterWrite("r", H_F, H_G)]),
        None,
        "out of range",
    ),
    "unknown_register": lambda: (
        _error_program([RegisterRead(H_G, "r", H_F)]),
        None,
        "unknown register",
    ),
}


@pytest.mark.parametrize("sink", [list, StepSink], ids=["results", "steps"])
@pytest.mark.parametrize("case", sorted(BATCH_ERROR_CASES))
def test_packet_triggered_errors_match_the_walker_in_a_batch(case, sink):
    """The emitted loop raises the walker's error type and message at
    the packet the walker raises it at, having folded every packet
    before it."""
    program, poked_entry, message = BATCH_ERROR_CASES[case]()
    failures = {}
    for tier in TIERS:
        switch = BehavioralSwitch(program, _tiered(RuntimeConfig(), tier))
        if poked_entry is not None:
            switch.config.entries.setdefault("t", []).append(poked_entry)
        if case == "unknown_register":
            del switch.state._arrays["r"], switch.state._sizes["r"]
        into = sink()
        with pytest.raises(SimulationError) as raised:
            switch.process_many(ReplayTrace(ERROR_TRACE), into=into)
        assert message in str(raised.value)
        done = (
            [_result_fingerprint(r) for r in into] if sink is list
            else (into.paths, into.decisions)
        )
        failures[tier] = (
            type(raised.value), str(raised.value), done,
            switch.state.snapshot(),
        )
    assert failures["compiled"] == failures["reference"]


def test_a_plan_traceback_shows_the_emitted_line():
    program, _entry, _message = ERROR_CASES["register_index_out_of_range"]()
    switch = BehavioralSwitch(program, RuntimeConfig())
    with pytest.raises(SimulationError) as raised:
        switch.process_many(ERROR_TRACE, into=StepSink())
    emitted = [
        frame for frame in traceback.extract_tb(raised.value.__traceback__)
        if frame.filename.startswith("<plan ")
    ]
    assert emitted
    assert "read_register('r', " in emitted[-1].line


# ----------------------------------------------------------------------
# One emission per content key.


def test_an_equal_content_clone_shares_one_emission(emissions):
    switches = [_firewall("compiled") for _ in range(2)]
    assert switches[0].program is not switches[1].program
    results = [switch.process(PACKET) for switch in switches]
    assert len(emissions) == 1
    first, second = (switch._plan[False] for switch in switches)
    assert first is not second
    assert first.__code__ is second.__code__
    assert _result_fingerprint(results[0]) == _result_fingerprint(results[1])


def test_two_switches_on_one_tail_keep_separate_registers(emissions):
    trace = ReplayTrace(example_firewall.make_trace(300))
    first, second = _firewall("compiled"), _firewall("compiled")
    reference = _firewall("reference")
    pristine = second.state.snapshot()
    first.process_many(trace, into=StepSink())
    assert first.state.snapshot() != pristine
    assert second.state.snapshot() == pristine
    second.process_many(trace, into=StepSink())
    reference.process_many(trace, into=StepSink())
    assert len(emissions) == 1
    assert first.state.snapshot() == second.state.snapshot()
    assert second.state.snapshot() == reference.state.snapshot()


def test_add_entry_emits_afresh(emissions):
    packet = udp_packet("10.0.0.1", "10.0.0.2", 1234, 9999)
    switch = _firewall("compiled")
    assert not switch.process(packet).dropped
    switch.config.add_entry("ACL_UDP", [9999], "acl_udp_drop")
    assert switch.process(packet).dropped
    assert len(emissions) == 2
    # The first config's tail is still in the memo.
    assert not _firewall("compiled").process(packet).dropped
    assert len(emissions) == 2


@pytest.mark.parametrize("sink", [list, StepSink], ids=["results", "steps"])
def test_a_changed_register_shape_is_emitted_afresh(emissions, sink):
    """The ``unknown_register`` batch case still matches the walker when
    the intact shape's tail is in the memo."""
    program, _entry, _message = BATCH_ERROR_CASES["unknown_register"]()
    BehavioralSwitch(program, RuntimeConfig()).process_many(
        ReplayTrace(ERROR_TRACE[:3]), into=sink()
    )
    test_packet_triggered_errors_match_the_walker_in_a_batch(
        "unknown_register", sink
    )
    assert len(emissions) == 2


def test_a_reused_tail_traceback_shows_the_emitted_line(emissions):
    """The second switch binds the first one's tail after its source
    left :mod:`linecache`; binding registers it again."""
    program, _entry, _message = ERROR_CASES["register_index_out_of_range"]()
    for _ in range(2):
        switch = BehavioralSwitch(program, RuntimeConfig())
        with pytest.raises(SimulationError) as raised:
            switch.process_many(ERROR_TRACE, into=StepSink())
        emitted = [
            frame
            for frame in traceback.extract_tb(raised.value.__traceback__)
            if frame.filename.startswith("<plan ")
        ]
        assert emitted
        assert "read_register('r', " in emitted[-1].line
        linecache.cache.pop(emitted[-1].filename)
    assert len(emissions) == 1


# ----------------------------------------------------------------------
# Shared templates and deep control trees.


def test_metadata_only_program_leaves_shared_templates_untouched():
    """A program that writes only metadata shares every header dict
    and the valid set with the parse templates: two step-sink replays
    leave them as the parser made them, and match the walker."""
    b = ProgramBuilder("metadata_only")
    b.header_type("h_t", [("f", 8), ("g", 8)])
    b.header("h", "h_t")
    b.metadata("m", [("a", 8)])
    b.parser_state("start", extracts=["h"])
    b.action("count", [AddToField(M_A, H_F), SetEgressPort(H_G)])
    b.action("drop", [Drop()])
    b.table("tc", actions=["count"], default_action="count")
    b.table("td", keys=[("m.a", "exact")], actions=["drop", "count"],
            default_action="count")
    b.ingress(Seq([Apply("tc"), Apply("td")]))
    program = b.build()
    trace = ReplayTrace(SHAPE_TRACE)
    outcomes = {}
    for tier in TIERS:
        config = _tiered(RuntimeConfig(), tier)
        config.add_entry("td", [7], "drop")
        switch = BehavioralSwitch(program, config)
        templates = trace.templates(switch._parser.key, switch._parser.parse)
        parsed = copy.deepcopy(templates)
        sinks = [switch.process_many(trace, into=StepSink()) for _ in "ab"]
        assert templates == parsed
        outcomes[tier] = [(sink.paths, sink.decisions) for sink in sinks]
    assert outcomes["compiled"] == outcomes["reference"]


def _deep_program(ingress, tables):
    """Header ``h`` (``f``, ``g``: 8 bits each), metadata ``m`` (``a``);
    each table of ``tables`` is keyed on ``h.g`` and hits on g < 40,
    counting into ``m.a`` and bumping ``h.g``."""
    b = ProgramBuilder("deep")
    b.header_type("h_t", [("f", 8), ("g", 8)])
    b.header("h", "h_t")
    b.metadata("m", [("a", 8)])
    b.parser_state("start", extracts=["h"])
    b.action("bump", [AddToField(M_A, Const(1)),
                      AddToField(H_G, Const(1)),
                      SetEgressPort(M_A)])
    b.action("nop", [])
    config = RuntimeConfig()
    for table in tables:
        b.table(table, keys=[("h.g", "exact")], actions=["bump", "nop"],
                default_action="nop", size=64)
        for g in range(40):
            config.add_entry(table, [g], "bump")
    b.ingress(ingress)
    return b.build(), config


def _if_chain(depth):
    """``depth`` nested ``If``s on ``h.f``, a table in every tenth
    level's ``else``."""
    node, tables = Apply("t_inner"), ["t_inner"]
    for level in range(depth):
        other = None
        if level % 10 == 0:
            tables.append(f"t{level}")
            other = Apply(f"t{level}")
        node = If(BinOp("!=", H_F, Const(level % 7)), node, other)
    return node, tables


def _on_hit_chain(depth):
    """``depth`` tables, each applied in the one before's ``on_hit``."""
    node = None
    for level in reversed(range(depth)):
        node = Apply(f"t{level}", on_hit=node)
    return node, [f"t{level}" for level in range(depth)]


#: ``h.f``, ``h.g`` per packet: every depth of both chains is reached.
DEEP_TRACE = [bytes([f, g]) for f in range(8) for g in (0, 5, 21, 39, 40)]


@pytest.mark.parametrize("sink", [list, StepSink], ids=["results", "steps"])
@pytest.mark.parametrize(
    "chain", [lambda: _if_chain(150), lambda: _on_hit_chain(60)],
    ids=["if_150", "on_hit_60"],
)
def test_deep_control_trees_replay_as_on_the_walker(chain, sink):
    """Nested past ``plan.MAX_DEPTH``, a subtree is emitted as a function
    of its own; CPython refuses source nested about 100 levels deep.  The
    ``f == 7`` packets run the whole ``If`` chain, the ``g == 0`` ones
    40 tables down the ``on_hit`` chain."""
    program, config = _deep_program(*chain())
    outcomes = {}
    for tier in TIERS:
        switch = BehavioralSwitch(program, _tiered(config.clone(), tier))
        into = switch.process_many(ReplayTrace(DEEP_TRACE), into=sink())
        done = (
            [(r.index, _result_fingerprint(r)) for r in into] if sink is list
            else (list(into.paths.items()), into.decisions)
        )
        outcomes[tier] = (done, switch.state.snapshot())
        if tier == "compiled":
            replay = switch._plan[sink is StepSink]
            source = linecache.getlines(replay.__code__.co_filename)
            # Either tail hands the subtree the header words.
            assert "def _f0(valid, steps, _w0," in "".join(source)
    assert outcomes["compiled"] == outcomes["reference"]


def test_switches_differing_only_in_config_share_one_compiled_source(
    emissions,
):
    program = example_firewall.build_program()
    other = example_firewall.runtime_config()
    other.set_default("ACL_UDP", "acl_udp_drop")
    replays = [
        BehavioralSwitch(program, config)
        for config in (example_firewall.runtime_config(), other)
    ]
    for switch in replays:
        switch.process_many([PACKET], into=StepSink())
    first, second = (switch._plan[True] for switch in replays)
    assert len(emissions) == 2
    assert first is not second
    assert first.__code__ is second.__code__


# ----------------------------------------------------------------------
# Each specialisation the plan makes at build, against the walker.


def _shape_program(ingress, egress=None):
    """Header ``h`` (``f``, ``g``: 8 bits each), then ``k`` (``x``: 8
    bits) only when ``h.f == 1``; metadata ``m`` (``a``: 8 bits, ``b``:
    16 bits).  Tables: ``tg`` keyed on ``h.g``, ``tfk`` on ``h.f`` and
    ``k.x``, ``tk`` on ``k.x``, the keyless ``tn`` and ``tw``; egress
    applies ``te``, keyed on the metadata field ``m.a``, or ``egress``.
    The keyless ``tx`` copies ``m`` into ``h``: ``m.a`` to ``h.f``, and
    ``h.g`` is 1 where ``m.b == 0x2345``."""
    b = ProgramBuilder("plan_shapes")
    b.header_type("h_t", [("f", 8), ("g", 8)])
    b.header_type("k_t", [("x", 8)])
    b.header("h", "h_t")
    b.header("k", "k_t")
    b.metadata("m", [("a", 8), ("b", 16)])
    b.parser_state("start", extracts=["h"], select="h.f",
                   transitions={1: "parse_k"})
    b.parser_state("parse_k", extracts=["k"])
    b.action("mark", [ModifyField(M_A, ParamRef("v")),
                      SetEgressPort(Const(2))], parameters=["v"])
    b.action("drop", [Drop()])
    b.action("nop", [])
    # Every constant is wider than its field: the write must mask it.
    b.action("wide", [ModifyField(M_A, Const(0x1FF)),
                      ModifyField(FieldRef("m", "b"), Const(0x12345)),
                      ModifyField(H_G, Const(0xABC)),
                      SetEgressPort(Const(0x10005))])
    b.table("tg", keys=[("h.g", "exact")], actions=["mark", "drop", "nop"],
            default_action="nop")
    b.table("tfk", keys=[("h.f", "exact"), ("k.x", "exact")],
            actions=["mark", "nop"], default_action="nop")
    b.table("tk", keys=[("k.x", "ternary")], actions=["mark", "nop"],
            default_action="nop")
    b.table("tn", actions=["mark"], default_action="mark",
            default_action_args=(9,))
    b.table("tw", actions=["wide"], default_action="wide")
    b.table("te", keys=[("m.a", "exact")], actions=["mark", "nop"],
            default_action="nop")
    b.action("expose", [
        ModifyField(H_F, M_A),
        ModifyField(H_G, BinOp("==", FieldRef("m", "b"), Const(0x2345))),
    ])
    b.table("tx", actions=["expose"], default_action="expose")
    b.ingress(ingress)
    b.egress(Apply("te") if egress is None else egress)
    return b.build()


M_A = FieldRef("m", "a")


def _shape_config():
    config = RuntimeConfig()
    config.add_entry("tg", [7], "mark", [1])
    config.add_entry("tg", [3], "drop")
    config.add_entry("tfk", [1, 9], "mark", [4])
    config.add_entry("tk", [(8, 0xF8)], "mark", [5])
    config.add_entry("te", [1], "mark", [6])
    config.add_entry("te", [0xFF], "mark", [7])
    return config


SHAPES = {
    "valid_if_else": If(ValidExpr("k"), Apply("tk"), Apply("tn")),
    "valid_if": If(ValidExpr("k"), Apply("tk")),
    "not_valid_if": If(LNot(ValidExpr("k")), Apply("tn")),
    "not_valid_if_else": If(LNot(ValidExpr("k")), Apply("tn"), Apply("tk")),
    "test_if": Seq([Apply("tg"), If(BinOp("==", H_G, Const(7)),
                                    Apply("tn"))]),
    "empty_seq": Seq([]),
    "empty_branches": Seq([Seq([]), If(ValidExpr("k"), Seq([]), Seq([])),
                           If(BinOp("==", H_F, Const(1)), Seq([]))]),
    "single_child_seq": Seq([Seq([Apply("tg")])]),
    "single_key": Apply("tg"),
    # Keyed on a header that is invalid on some packets: a miss.
    "single_key_unguarded": Apply("tk"),
    "multi_key": Apply("tfk"),
    "wide_constant": Seq([Apply("tw"), Apply("tg")]),
}

#: ``h.f``, ``h.g`` (then ``k.x`` when ``h.f == 1``) per packet: every
#: table hits and misses, ``k`` is valid and invalid, and ``tg`` drops.
SHAPE_TRACE = [bytes([1, 7, 9]), bytes([0, 7]), bytes([1, 2, 12]),
               bytes([2, 3]), bytes([1, 3, 9]), bytes([1, 0xBC, 4]),
               bytes([5, 5])]


def _shape_switch(shape, tier):
    return BehavioralSwitch(
        _shape_program(SHAPES[shape]), _tiered(_shape_config(), tier)
    )


def _full_replay(shape, tier):
    switch = _shape_switch(shape, tier)
    return _observed(switch, switch.process_many(SHAPE_TRACE))


def _step_replay(shape, tier):
    """Two step-sink replays of one shared parse, then one more packet:
    paths (first-seen order), decisions, the index the batch left the
    next packet and the registers."""
    switch, trace = _shape_switch(shape, tier), ReplayTrace(SHAPE_TRACE)
    sinks = [switch.process_many(trace, into=StepSink()) for _ in range(2)]
    return (
        [(list(sink.paths.items()), sink.decisions) for sink in sinks],
        switch.process(SHAPE_TRACE[0]).index,
        switch.state.snapshot(),
    )


@pytest.mark.parametrize("replay", [_full_replay, _step_replay],
                         ids=["results", "steps"])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_every_shape_replays_as_on_the_walker(shape, replay):
    assert replay(shape, "compiled") == replay(shape, "reference")


def test_wide_constants_are_masked_to_their_fields():
    """Held to the walker above; here what it does, so the shapes are
    known to reach the mask."""
    switch = _shape_switch("wide_constant", "compiled")
    result = switch.process(SHAPE_TRACE[1])
    assert result.output_bytes == bytes([0, 0xBC])  # h.g
    # Egress hit on the masked m.a (0xFF), whose entry then wrote 7 to
    # it and port 2.
    assert result.steps[-1] == ("te", "mark", True)
    assert result.egress_port == 2
    # The metadata, copied into h after te: m.a == 7, m.b == 0x2345.
    exposed = BehavioralSwitch(
        _shape_program(SHAPES["wide_constant"],
                       egress=Seq([Apply("te"), Apply("tx")])),
        _tiered(_shape_config(), "compiled"),
    ).process(SHAPE_TRACE[1])
    assert exposed.steps[-2:] == [("te", "mark", True), ("tx", "expose", False)]
    assert exposed.output_bytes == bytes([7, 1])


#: A poked entry's action and data, and what the walker raises for it.
POKES = {
    "arity_mismatch": ("mark", (), SimulationError, "takes 1 args, got 0"),
    "unknown_action": ("ghost", (), KeyError, "ghost"),
}


@pytest.mark.parametrize("sink", [list, StepSink], ids=["results", "steps"])
@pytest.mark.parametrize("table", ["tg", "tfk"])
@pytest.mark.parametrize("poke", sorted(POKES))
def test_poked_entry_fails_at_the_same_packet(poke, table, sink):
    """An entry poked in behind the config API (no validation, no
    stamp) before the plan is built binds the error that rejects the
    packet that hits it, as the walker does — not the build, and not an
    earlier packet."""
    action, args, error, message = POKES[poke]
    match = {"tg": (2,), "tfk": (1, 12)}[table]
    outcomes = {}
    for tier in TIERS:
        switch = BehavioralSwitch(
            _shape_program(Apply(table)), _tiered(_shape_config(), tier)
        )
        switch.config.entries[table].append(
            TableEntry(match=match, action=action, action_args=args)
        )
        into = sink()
        with pytest.raises(error, match=message):
            switch.process_many(SHAPE_TRACE, into=into)
        done = (
            [_result_fingerprint(r) for r in into] if sink is list
            else into.decisions
        )
        assert len(done) == 2  # packet 2 is the one that hits
        outcomes[tier] = (done, switch.state.snapshot())
    assert outcomes["compiled"] == outcomes["reference"]


# ----------------------------------------------------------------------
# Two paths, never mixed.


def test_tier_on_never_reaches_the_walker_and_tier_off_builds_no_plan(
    monkeypatch,
):
    def unreachable(*_args, **_kwargs):
        raise AssertionError("wrong traversal for this tier")

    trace = example_firewall.make_trace(60, seed=1)
    with monkeypatch.context() as patch:
        patch.setattr("repro.sim.action_interp.execute_action", unreachable)
        patch.setattr("repro.sim.switch.execute_action", unreachable)
        assert len(_firewall("compiled").process_many(trace)) == len(trace)
    with monkeypatch.context() as patch:
        patch.setattr("repro.sim.switch.build_plan", unreachable)
        switch = _firewall("reference")
        assert len(switch.process_many(trace)) == len(trace)
        assert switch._plan is None


# ----------------------------------------------------------------------
# The deparse from words (DESIGN.md §5): the plan masks every value it
# writes and rebuilds only the words of headers it writes, so its output
# is what the reference's validating ``deparse_packet`` packs.


def _assert_bytes_equal_the_reference(program, fresh_config, trace):
    """Every packet's engine ``output_bytes``, on a plain list and on a
    :class:`ReplayTrace`, equal the reference loop's ``deparse_packet``
    (a ``PacketError`` there is a value the engine failed to mask).
    Returns the engine's results on the plain list."""
    reference = BehavioralSwitch(program, _tiered(fresh_config(), "reference"))
    want = [r.output_bytes for r in reference.process_many(trace)]
    assert len(want) == len(trace)
    got = None
    for packets in (list(trace), ReplayTrace(trace)):
        engine = BehavioralSwitch(program, _tiered(fresh_config(), "compiled"))
        results = engine.process_many(packets)
        assert [r.output_bytes for r in results] == want
        got = got or results
    return got


@pytest.mark.parametrize("seed", range(25))
def test_trusted_pack_equals_validating_pack_on_generated_programs(seed):
    """Plain and instrumented: the profiling header is valid on every
    packet and extracted on none, so every packet of an instrumented
    replay is rebuilt from its words."""
    case = generate_case(seed)
    _assert_bytes_equal_the_reference(
        case.program, case.config.clone, case.trace
    )
    instrumented = instrument(case.program)
    results = _assert_bytes_equal_the_reference(
        instrumented.program,
        lambda: instrumented.adapt_config(case.config.clone()),
        case.trace,
    )
    assert all(r.output_bytes is not r.input_bytes for r in results)


@pytest.mark.parametrize(
    "module", [example_firewall, nat_gre, enterprise],
    ids=lambda module: module.__name__.rsplit(".", 1)[-1],
)
def test_trusted_pack_equals_validating_pack_on_bundled_programs(module):
    program = module.build_program()
    instrumented = instrument(program)
    results = _assert_bytes_equal_the_reference(
        instrumented.program,
        lambda: instrumented.adapt_config(module.runtime_config()),
        module.make_trace(300),
    )
    assert all(r.output_bytes is not r.input_bytes for r in results)


#: The nine bundled programs.
BUNDLED = {name: getattr(programs, name) for name in programs.__all__
           if name != "EXAMPLE_TARGET"}


@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_output_bytes_equal_the_reference_deparse(name):
    """A program that writes no packet field (the firewall) outputs
    every packet it parses along a path that deparses as it parsed as
    its input object, with no copy."""
    module = BUNDLED[name]
    program = module.build_program()
    results = _assert_bytes_equal_the_reference(
        program, module.runtime_config,
        module.make_trace(1500),
    )
    if module is example_firewall:
        assert all(r.output_bytes is r.input_bytes for r in results)


def _crafted(fields=(("f", 8), ("g", 8)), *, auto=(), order=None,
             actions=(), entries=()):
    """Headers ``a`` and ``b`` (``fields`` each) extracted in that order,
    then ``c`` (one byte) when ``a.f == 1``; ``auto`` headers become
    auto-valid, and ``order`` reorders the declarations.  Table ``t``,
    keyed on ``a.f``, runs ``actions`` on ``entries`` (key, action)."""
    b = ProgramBuilder("crafted")
    b.header_type("ab_t", list(fields))
    b.header_type("c_t", [("x", 8)])
    for name in order or ("a", "b", "c"):
        b.header(name, "c_t" if name == "c" else "ab_t")
    b.parser_state("start", extracts=["a", "b"], select="a.f",
                   transitions={1: "parse_c"})
    b.parser_state("parse_c", extracts=["c"])
    for name, primitives in actions:
        b.action(name, list(primitives))
    b.action("nop", [])
    b.table("t", keys=[("a.f", "exact")],
            actions=[name for name, _ in actions] + ["nop"],
            default_action="nop")
    b.ingress(Apply("t"))
    program = b.build()
    if auto:
        program = dataclasses.replace(program, headers={
            name: dataclasses.replace(inst, auto_valid=name in auto)
            for name, inst in program.headers.items()
        })

    def config():
        fresh = RuntimeConfig()
        for key, action in entries:
            fresh.add_entry("t", [key], action)
        return fresh

    return program, config


#: ``a.f`` is 0, 1 (``c`` parsed), 2 and 3; every other byte is set.
CRAFTED_TRACE = [bytes([0, 0xFF, 0xEE, 0xDD, 0xCC]),
                 bytes([1, 0xAB, 0x12, 0x34, 0x56, 0x78]),
                 bytes([2, 0x0F, 0xF0, 0x55]),
                 bytes([3, 0x01, 0x02, 0x03, 0x04])]


def test_a_padded_header_is_rebuilt_with_its_pad_zeroed():
    """``a`` and ``b`` are 12 bits in 2 bytes: the low nibble of each is
    pad, and the input's set pad bits do not reach the output."""
    program, config = _crafted(fields=(("f", 8), ("g", 4)))
    results = _assert_bytes_equal_the_reference(
        program, config, CRAFTED_TRACE
    )
    assert results[0].output_bytes == bytes([0, 0xF0, 0xEE, 0xD0, 0xCC])


def test_an_auto_valid_header_the_path_does_not_extract_is_zero_filled():
    program, config = _crafted(auto=("c",))
    results = _assert_bytes_equal_the_reference(
        program, config, CRAFTED_TRACE
    )
    assert results[0].output_bytes == CRAFTED_TRACE[0][:4] + b"\0" + (
        CRAFTED_TRACE[0][4:]
    )
    assert results[1].output_bytes == CRAFTED_TRACE[1]


def test_the_deparse_follows_program_order_not_extraction_order():
    program, config = _crafted(order=("b", "a", "c"))
    results = _assert_bytes_equal_the_reference(
        program, config, CRAFTED_TRACE
    )
    assert results[0].output_bytes == bytes([0xEE, 0xDD, 0, 0xFF, 0xCC])


def test_headers_added_and_removed_are_word_operations():
    """``c`` is added zero-filled (no word changes, only the valid set),
    removed (likewise), or added and then written; on the last packet
    ``c`` is removed and written while invalid, and ``b`` is written,
    removed and added back."""
    c_x, b_g = FieldRef("c", "x"), FieldRef("b", "g")
    program, config = _crafted(actions=[
        ("add", [AddHeader("c")]),
        ("remove", [RemoveHeader("c")]),
        ("add_write", [AddHeader("c"), ModifyField(c_x, Const(9))]),
        ("reshape", [RemoveHeader("c"), ModifyField(c_x, Const(5)),
                     ModifyField(b_g, Const(3)), RemoveHeader("b"),
                     AddHeader("b")]),
    ], entries=[(0, "add"), (1, "remove"), (2, "add_write"), (3, "reshape")])
    results = _assert_bytes_equal_the_reference(
        program, config, CRAFTED_TRACE
    )
    assert [r.output_bytes for r in results] == [
        bytes([0, 0xFF, 0xEE, 0xDD, 0, 0xCC]),
        bytes([1, 0xAB, 0x12, 0x34, 0x78]),
        bytes([2, 0x0F, 0xF0, 0x55, 9]),
        bytes([3, 0x01, 0, 0, 0x04]),
    ]
    _assert_bytes_equal_the_reference(
        nat_gre.build_program(), nat_gre.runtime_config,
        nat_gre.make_trace(600),
    )


def test_a_write_of_the_value_already_there_outputs_the_input():
    """``a.g`` is written with what it holds on the first packet: the
    rebuilt word equals the parsed one, so the output is the input
    object itself.  On the second it changes."""
    program, config = _crafted(actions=[
        ("same", [ModifyField(FieldRef("a", "g"), Const(0xFF))]),
    ], entries=[(0, "same"), (1, "same")])
    results = _assert_bytes_equal_the_reference(
        program, config, CRAFTED_TRACE
    )
    assert results[0].output_bytes is results[0].input_bytes
    assert results[1].output_bytes == bytes([1, 0xFF, 0x12, 0x34, 0x56, 0x78])
    assert results[2].output_bytes is results[2].input_bytes


def _tail_sources(program, config, trace):
    switch = BehavioralSwitch(program, config)
    switch.process_many(trace)
    switch.process_many(trace, into=StepSink())
    return ["".join(linecache.getlines(switch._plan[kind].__code__.co_filename))
            for kind in (False, True)]


@pytest.mark.parametrize("name", sorted(BUNDLED) + ["generated"])
def test_no_emitted_tail_touches_a_header_dict(name):
    """Both tails of every bundled program, plain and instrumented (and
    of the first five generated cases) run on words: no header dict, no
    expanded parse, no write log."""
    if name == "generated":
        inputs = [(c.program, c.config.clone, c.trace)
                  for c in map(generate_case, range(5))]
    else:
        module = BUNDLED[name]
        program = module.build_program()
        inputs = [(program, module.runtime_config,
                   module.make_trace(60))]
    for program, config, trace in list(inputs):
        instrumented = instrument(program)
        inputs.append((
            instrumented.program,
            lambda i=instrumented, c=config: i.adapt_config(c()),
            trace,
        ))
    for program, config, trace in inputs:
        for source in _tail_sources(program, config(), trace):
            for text in ("headers[", "fresh(", "log.add"):
                assert text not in source
