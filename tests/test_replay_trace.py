"""A session's trace is parsed once: the shared parse and its limits.

The session's trace is a :class:`~repro.sim.switch.ReplayTrace`, which
keeps one :class:`~repro.sim.switch.ParseTemplate` per packet for each
parser that replays it, and every replay starts from private copies of
them (DESIGN.md §5, "What replays share").  Pinned here:

* **oracle** — every template equals the reference parser,
  :func:`repro.sim.parser_engine.parse_packet`, which shares no code
  with the switch's ``_parse``, in headers, validity and payload;
* **isolation** — replaying header-rewriting inputs twice through one
  session trace gives the results and register state of two plain-list
  replays, output bytes included; a profiling replay, which copies only
  the header dicts its plan writes, leaves every template as the parser
  made it;
* **parse errors** — a packet that fails to parse is not memoized and
  fails at the same index, with the same error, on every replay;
* **work, without a clock** — a cold optimize parses each packet once,
  and one-shot callers on plain lists build no templates;
* **lifetime** — the parses never travel in a pickle and go with the
  session's trace.
"""

from __future__ import annotations

import copy
import pickle
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.controller.equivalence import compare_behavior
from repro.core.instrument import instrument
from repro.core.pipeline import P2GO
from repro.core.profiler import Profiler
from repro.core.session import OptimizationContext
from repro.exceptions import SimulationError
from repro.fuzz.generator import generate_case
from repro import programs
from repro.p4 import (
    AddHeader,
    Apply,
    ModifyField,
    ProgramBuilder,
    RemoveHeader,
    Seq,
)
from repro.p4.expressions import Const, FieldRef
from repro.programs import cgnat, example_firewall, nat_gre
from repro.sim import BehavioralSwitch
from repro.sim.runtime import RuntimeConfig
from repro.sim.parser_engine import parse_packet
from repro.sim.switch import ReplayTrace
from tests.test_profiling_engine import (
    BIT_IDENTITY_INPUTS,
    _fresh_config,
    _result_fingerprint,
    ghost_write,
)


def _templates(program, config, trace):
    """Replay ``trace`` as a :class:`ReplayTrace` once; its templates."""
    shared = ReplayTrace(trace)
    BehavioralSwitch(program, config).process_many(shared)
    (templates,) = shared.parses.values()
    return templates


def _assert_templates_match_reference_parser(program, config, trace):
    templates = _templates(program, config, trace)
    assert len(templates) == len(trace)
    for entry, template in zip(trace, templates):
        data = entry[0] if isinstance(entry, tuple) else entry
        try:
            expected = parse_packet(program, data)
        except SimulationError:
            assert template is None
            continue
        assert template.headers == expected.headers
        assert template.valid == expected.valid
        assert template.payload == expected.payload


@pytest.mark.parametrize("name", sorted(BIT_IDENTITY_INPUTS))
def test_templates_equal_the_reference_parser(name):
    module = BIT_IDENTITY_INPUTS[name]
    program = module.build_program()
    _assert_templates_match_reference_parser(
        program, _fresh_config(module, program), module.make_trace(600)
    )


@pytest.mark.parametrize("seed", range(25))
def test_generated_templates_equal_the_reference_parser(seed):
    case = generate_case(seed)
    _assert_templates_match_reference_parser(
        case.program, case.config.clone(), case.trace
    )


# ----------------------------------------------------------------------
# Isolation: a replay's writes never reach the next replay.


#: Inputs whose actions rewrite or create header fields.
HEADER_WRITERS = {"cgnat": cgnat, "ghost_write": ghost_write, "nat_gre": nat_gre}


@pytest.mark.parametrize("name", sorted(HEADER_WRITERS))
def test_replays_of_a_session_trace_equal_plain_replays(name):
    module = HEADER_WRITERS[name]
    program = module.build_program()
    trace = module.make_trace(600)
    ctx = OptimizationContext(
        program, _fresh_config(module, program), trace
    )
    shared = ctx.trace
    assert isinstance(shared, ReplayTrace)
    for _replay in range(2):
        got_switch = BehavioralSwitch(
            program, _fresh_config(module, program)
        )
        got = got_switch.process_many(shared)
        want_switch = BehavioralSwitch(
            program, _fresh_config(module, program)
        )
        want = want_switch.process_many(list(trace))
        assert [_result_fingerprint(r) for r in got] == [
            _result_fingerprint(r) for r in want
        ]
        assert got_switch.state.snapshot() == want_switch.state.snapshot()
    assert len(shared.parses) == 1


def test_concurrent_replays_of_one_trace_stay_isolated():
    """The thread-pool fallback replays one session trace on several
    threads at once, and two of them may build the same key: each
    replay must still see only its own writes."""
    program = nat_gre.build_program()
    trace = nat_gre.make_trace(200)
    want = [
        _result_fingerprint(r)
        for r in BehavioralSwitch(program, nat_gre.runtime_config())
        .process_many(list(trace))
    ]
    shared = ReplayTrace(trace)

    def replay(_task):
        switch = BehavioralSwitch(program, nat_gre.runtime_config())
        return [_result_fingerprint(r) for r in switch.process_many(shared)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(replay, task) for task in range(8)]
            got = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(results == want for results in got)
    assert len(shared.parses) == 1


# ----------------------------------------------------------------------
# A profiling replay shares every header dict its plan never writes.


class header_ops:
    """Shaped like a program module: ``h1`` is parsed on half the
    packets, and ``t0`` (keyed on ``h0.f``) adds it, adds and then
    writes it, removes it, or removes and then writes it.  Adding a
    header replaces its dict and removing one drops it, so of these only
    the plain writes need a private copy of the parse."""

    @staticmethod
    def build_program():
        h1_g = FieldRef("h1", "g")
        b = ProgramBuilder("header_ops")
        b.header_type("h0_t", [("f", 8), ("nxt", 8)])
        b.header("h0", "h0_t")
        b.header_type("h1_t", [("g", 8), ("k", 8)])
        b.header("h1", "h1_t")
        b.parser_state(
            "start", extracts=["h0"], select="h0.nxt",
            transitions={1: "parse_h1"},
        )
        b.parser_state("parse_h1", extracts=["h1"])
        b.parser_start("start")
        b.action("add", [AddHeader("h1")])
        b.action("add_write", [AddHeader("h1"), ModifyField(h1_g, Const(7))])
        b.action("remove", [RemoveHeader("h1")])
        b.action(
            "remove_write", [RemoveHeader("h1"), ModifyField(h1_g, Const(5))]
        )
        b.table(
            "t0",
            keys=[(FieldRef("h0", "f"), "exact")],
            actions=["add", "add_write", "remove", "remove_write"],
            size=8,
        )
        b.ingress(Seq([Apply("t0")]))
        return b.build()

    @staticmethod
    def runtime_config():
        config = RuntimeConfig()
        for f, action in enumerate(
            ("add", "add_write", "remove", "remove_write"), start=1
        ):
            config.add_entry("t0", [f], action)
        return config

    @staticmethod
    def make_trace(_packets):
        return [
            bytes([f, nxt, 0x11, 0x22]) for f in range(6) for nxt in (0, 1)
        ]


#: The nine bundled programs, the ghost write and the header operations.
SINK_INPUTS = {
    **{name: getattr(programs, name) for name in programs.__all__
       if name != "EXAMPLE_TARGET"},
    "ghost_write": ghost_write,
    "header_ops": header_ops,
}


def _assert_profiling_leaves_templates_intact(program, fresh_config, trace):
    """Two profiling replays of one session trace: the templates are
    what the parser made, and both profiles are a plain list's."""
    shared = ReplayTrace(trace)
    parse = BehavioralSwitch(program, fresh_config())
    templates = shared.templates(parse._parse_key, parse._parse)
    before = copy.deepcopy(templates)
    want = Profiler(program, fresh_config()).run(list(trace))
    for _replay in range(2):
        got = Profiler(program, fresh_config()).run(shared)
        assert got == want
        assert templates == before


@pytest.mark.parametrize("name", sorted(SINK_INPUTS))
def test_profiling_replays_leave_the_templates_intact(name):
    module = SINK_INPUTS[name]
    program = module.build_program()
    _assert_profiling_leaves_templates_intact(
        program,
        lambda: _fresh_config(module, program),
        module.make_trace(600),
    )


@pytest.mark.parametrize("seed", range(25))
def test_generated_profiling_replays_leave_the_templates_intact(seed):
    case = generate_case(seed)
    _assert_profiling_leaves_templates_intact(
        case.program, case.config.clone, case.trace
    )


# ----------------------------------------------------------------------
# Parse errors are not memoized.


def test_too_short_packet_fails_at_the_same_index_on_every_replay():
    program = example_firewall.build_program()
    trace = example_firewall.make_trace(40)
    trace.insert(25, b"\x00" * 5)  # shorter than an Ethernet header
    shared = ReplayTrace(trace)
    failures = []
    for packets in (trace, shared, shared):
        switch = BehavioralSwitch(program, example_firewall.runtime_config())
        results = []
        with pytest.raises(SimulationError) as raised:
            switch.process_many(packets, into=results)
        failures.append((len(results), str(raised.value)))
    assert failures[0][0] == 25
    assert "packet too short" in failures[0][1]
    assert failures[1] == failures[0] and failures[2] == failures[0]
    (templates,) = shared.parses.values()
    assert templates[25] is None
    assert None not in templates[:25] + templates[26:]


# ----------------------------------------------------------------------
# Work, counted without a clock.


def _count_parses(monkeypatch):
    parses = []
    real_parse = BehavioralSwitch._parse

    def counting_parse(self, data):
        parses.append(data)
        return real_parse(self, data)

    monkeypatch.setattr(BehavioralSwitch, "_parse", counting_parse)
    return parses


def test_cold_optimize_parses_each_packet_once(monkeypatch):
    """Ten replays of 4000 packets parsed 40 000 times before the
    session's trace kept its parses."""
    parses = _count_parses(monkeypatch)
    result = P2GO(
        example_firewall.build_program(),
        example_firewall.runtime_config(),
        example_firewall.make_trace(4000),
        example_firewall.TARGET,
        workers=1,
        store=False,
    ).run()
    assert result.session_counters.profile_executions >= 2
    assert len(parses) <= 4000


def test_one_shot_replay_of_a_plain_list_builds_no_templates(monkeypatch):
    parses = _count_parses(monkeypatch)
    asked = []
    monkeypatch.setattr(
        ReplayTrace, "templates", lambda *args: asked.append(args)
    )
    program = example_firewall.build_program()
    trace = example_firewall.make_trace(300)
    report = compare_behavior(
        program,
        example_firewall.runtime_config(),
        program,
        example_firewall.runtime_config(),
        trace,
    )
    assert report.equivalent
    assert asked == []
    assert len(parses) == 2 * len(trace)


def test_instrumentation_changes_the_parse_key():
    """The auto-valid profiling header is something ``_parse`` adds, so
    an instrumented program may not share the plain program's parses;
    an equal-content clone may."""
    program = example_firewall.build_program()
    key = BehavioralSwitch(program)._parse_key
    assert BehavioralSwitch(program.clone())._parse_key == key
    assert BehavioralSwitch(instrument(program).program)._parse_key != key


# ----------------------------------------------------------------------
# Lifetime: parses live and die with the session's trace.


def test_a_pickled_replay_trace_is_a_plain_list():
    trace = example_firewall.make_trace(50)
    shared = ReplayTrace(trace)
    BehavioralSwitch(
        example_firewall.build_program(), example_firewall.runtime_config()
    ).process_many(shared)
    assert shared.parses
    restored = pickle.loads(pickle.dumps(shared))
    assert type(restored) is list
    assert restored == trace
    assert type(shared[:10]) is list


def test_swapping_the_trace_or_closing_the_session_drops_the_parses():
    program = example_firewall.build_program()
    ctx = OptimizationContext(
        program,
        example_firewall.runtime_config(),
        example_firewall.make_trace(50),
    )
    ctx.profile()
    first = ctx.trace
    assert first.parses
    ctx.trace = example_firewall.make_trace(60)
    assert ctx.trace is not first and not ctx.trace.parses
    ctx.profile()
    assert ctx.trace.parses
    ctx.close()
    assert not ctx.trace.parses
