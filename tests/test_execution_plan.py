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
* the two paths are really separate: on the engine the walker's
  ``execute_action`` is never reached, on the reference no plan is built;
* the plan's deparser may skip ``pack``'s validation: on every header
  it re-packs, ``pack_trusted`` and the validating ``pack`` agree.
"""

from __future__ import annotations

import pytest

from repro.exceptions import RuntimeConfigError, SimulationError
from repro.p4 import (
    Apply,
    BinOp,
    Const,
    FieldRef,
    HashFields,
    If,
    LAnd,
    ModifyField,
    ParamRef,
    ProgramBuilder,
    RegisterRead,
    Seq,
)
from repro.core.instrument import instrument
from repro.fuzz.generator import generate_case
from repro.packets.craft import udp_packet
from repro.programs import enterprise, example_firewall, nat_gre
from repro.sim import BehavioralSwitch
from repro.sim.runtime import RuntimeConfig, TableEntry
from repro.sim.switch import StepSink
from tests.test_profiling_engine import _fresh_config, _result_fingerprint

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
    switch._parse = parsed.append
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
# The trusted deparse (DESIGN.md §5): the plan masks every value it
# writes and names only validated fields, so nothing it re-packs can
# fail ``pack``'s checks.


class _CheckedCodec:
    """Stands in for a codec in a switch's deparse plan: every header
    the fast path packs is packed both ways."""

    def __init__(self, codec, packed):
        self.pad, self._codec, self._packed = codec.pad, codec, packed

    def pack_trusted(self, values):
        validated = self._codec.pack(values)  # PacketError = trust misplaced
        assert self._codec.pack_trusted(values) == validated
        self._packed.append(self._codec.name)
        return validated


def _assert_deparse_trust_holds(program, fresh_config, trace):
    packed = []
    switch = BehavioralSwitch(program, _tiered(fresh_config(), "compiled"))
    switch._deparse_plan = tuple(
        (name, _CheckedCodec(codec, packed))
        for name, codec in switch._deparse_plan
    )
    switch.process_many(trace)
    # The reference validates every header of every packet and rejects
    # none.
    reference = BehavioralSwitch(
        program, _tiered(fresh_config(), "reference")
    )
    assert len(reference.process_many(trace)) == len(trace)
    return packed


@pytest.mark.parametrize("seed", range(25))
def test_trusted_pack_equals_validating_pack_on_generated_programs(seed):
    """Plain and instrumented: the profiling header is the one every
    packet of a profiling replay re-packs."""
    case = generate_case(seed)
    _assert_deparse_trust_holds(case.program, case.config.clone, case.trace)
    instrumented = instrument(case.program)
    packed = _assert_deparse_trust_holds(
        instrumented.program,
        lambda: instrumented.adapt_config(case.config.clone()),
        case.trace,
    )
    assert packed  # at least the profiling header, on every packet


@pytest.mark.parametrize(
    "module", [example_firewall, nat_gre, enterprise],
    ids=lambda module: module.__name__.rsplit(".", 1)[-1],
)
def test_trusted_pack_equals_validating_pack_on_bundled_programs(module):
    program = module.build_program()
    instrumented = instrument(program)
    assert _assert_deparse_trust_holds(
        instrumented.program,
        lambda: instrumented.adapt_config(_fresh_config(module, program)),
        module.make_trace(300),
    )
