"""A session's trace is parsed once: the shared parse and its limits.

The session's trace is a :class:`~repro.sim.switch.ReplayTrace`, which
keeps one :class:`~repro.sim.switch.ParseTemplate` per packet for each
parser that replays it — a tuple of header words, which no replay
writes (DESIGN.md §5, "What replays share").  Pinned here:

* **oracle** — the emitted parser (:func:`repro.sim.plan.build_parser`)
  equals the reference parser,
  :func:`repro.sim.parser_engine.parse_packet`, which shares no code
  with it, in header values, validity and payload, and its ``ident``
  flag says whether the path deparses as it parsed: on every template,
  and on every prefix of the first packets of every bundled program and
  generated case, where both raise the same error or neither does;
* **words** — a profiling replay reads header fields out of the words:
  no header dict, a local per written field, and a program that adds or
  removes a header copies only its valid set;
* **isolation** — replaying header-rewriting inputs twice through one
  session trace gives the results and register state of two plain-list
  replays, output bytes included; a profiling replay, which writes only
  locals and its own valid set, leaves every template as the parser
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
from repro.core.session import OptimizationContext, trace_fingerprint
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
import linecache

from repro.sim import BehavioralSwitch
from repro.sim import switch as switch_module
from repro.sim.plan import build_parser
from repro.sim.runtime import RuntimeConfig
from repro.packets.packet import unpack_fields
from repro.sim.parser_engine import deparse_packet, parse_packet
from repro.sim.switch import ReplayTrace, StepSink
from tests.test_profiling_engine import (
    BIT_IDENTITY_INPUTS,
    _result_fingerprint,
    ghost_write,
)


def _templates(program, config, trace):
    """Replay ``trace`` as a :class:`ReplayTrace` once; its templates."""
    shared = ReplayTrace(trace)
    BehavioralSwitch(program, config).process_many(shared)
    (templates,) = shared.parses.values()
    return templates


def _assert_parses_alike(program, parser, expected, template, data):
    """``template`` stands for the reference parse ``expected``: its
    valid set, payload and each slot's word (0 where the path extracts
    none), and ``ident`` is whether the valid packet headers, in program
    order, are the extracted ones, each once, none padded."""
    valid, ident, end, *words = template
    assert valid == expected.valid
    assert data[end:] == expected.payload
    for header, slot in parser.slots.items():
        header_type = program.header_type_of(header)
        got = unpack_fields(
            header_type, words[slot].to_bytes(header_type.byte_width, "big")
        )
        if header in expected.spans:
            assert got == expected.headers[header]
        else:
            assert not any(got.values())
    deparsed = [inst.name for inst in program.packet_headers()
                if inst.name in expected.valid]
    assert ident == (
        deparsed == list(expected.spans)
        and sum(e - s for s, e in expected.spans.values()) == end
        and not any(program.header_type_of(h).bit_width % 8
                    for h in deparsed)
    )
    if ident:
        assert deparse_packet(
            program, expected.headers, expected.valid, expected.payload
        ) == data


def _assert_templates_match_reference_parser(program, config, trace):
    templates = _templates(program, config, trace)
    parser = build_parser(program)
    assert len(templates) == len(trace)
    for entry, template in zip(trace, templates):
        data = entry[0] if isinstance(entry, tuple) else entry
        try:
            expected = parse_packet(program, data)
        except SimulationError:
            assert template is None
            continue
        _assert_parses_alike(program, parser, expected, template, data)


@pytest.mark.parametrize("name", sorted(BIT_IDENTITY_INPUTS))
def test_templates_equal_the_reference_parser(name):
    module = BIT_IDENTITY_INPUTS[name]
    program = module.build_program()
    _assert_templates_match_reference_parser(
        program, module.runtime_config(), module.make_trace(600)
    )


@pytest.mark.parametrize("seed", range(25))
def test_generated_templates_equal_the_reference_parser(seed):
    case = generate_case(seed)
    _assert_templates_match_reference_parser(
        case.program, case.config.clone(), case.trace
    )


def _outcome(parse, data):
    try:
        return parse(data), None
    except SimulationError as error:
        return None, str(error)


def _assert_parse_parity_at_every_truncation(program, trace):
    """Every prefix of each packet: the same parse, or the same error."""
    parser = build_parser(program)
    for entry in trace[:60]:
        entry = entry[0] if isinstance(entry, tuple) else entry
        for k in range(len(entry) + 1):
            data = entry[:k]
            template, error = _outcome(parser.parse, data)
            expected, expected_error = _outcome(
                lambda d: parse_packet(program, d), data
            )
            assert error == expected_error, (k, data)
            if template is not None:
                _assert_parses_alike(program, parser, expected, template, data)


#: The nine bundled programs.
BUNDLED = {name: getattr(programs, name) for name in programs.__all__
           if name != "EXAMPLE_TARGET"}


@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_parse_parity_at_every_truncation(name):
    module = BUNDLED[name]
    _assert_parse_parity_at_every_truncation(
        module.build_program(), module.make_trace(60)
    )


@pytest.mark.parametrize("seed", range(25))
def test_generated_parse_parity_at_every_truncation(seed):
    case = generate_case(seed)
    _assert_parse_parity_at_every_truncation(case.program, case.trace)


def test_parse_parity_on_a_parse_graph_deeper_than_the_source_nests():
    """A 60-state select chain nests one level per state: the emitter
    splits the path into functions, as the plan does deep controls."""
    b = ProgramBuilder("deep_parser")
    b.header_type("h_t", [("f", 4), ("nxt", 4)])
    for i in range(60):
        b.header(f"h{i}", "h_t")
        b.parser_state(
            f"s{i}", extracts=[f"h{i}"], select=f"h{i}.nxt",
            transitions={1: f"s{i + 1}"} if i < 59 else {},
        )
    b.parser_start("s0")
    b.action("nop", [])
    b.table("t", actions=["nop"], default_action="nop")
    b.ingress(Seq([Apply("t")]))
    program = b.build()
    trace = [bytes([0x31] * n + [0x30, 0xAB]) for n in (0, 7, 45, 58, 59, 60)]
    _assert_parse_parity_at_every_truncation(program, trace)


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
        program, module.runtime_config(), trace
    )
    shared = ctx.trace
    assert isinstance(shared, ReplayTrace)
    for _replay in range(2):
        got_switch = BehavioralSwitch(
            program, module.runtime_config()
        )
        got = got_switch.process_many(shared)
        want_switch = BehavioralSwitch(
            program, module.runtime_config()
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
# A profiling replay never writes the parse it shares.


class header_ops:
    """Shaped like a program module: ``h1`` is parsed on half the
    packets, and ``t0`` (keyed on ``h0.f``) adds it, adds and then
    writes it, removes it, or removes and then writes it: each is a
    write to the replay's own locals and valid set."""

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
    templates = shared.templates(parse._parser.key, parse._parser.parse)
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
        module.runtime_config,
        module.make_trace(600),
    )


@pytest.mark.parametrize("seed", range(25))
def test_generated_profiling_replays_leave_the_templates_intact(seed):
    case = generate_case(seed)
    _assert_profiling_leaves_templates_intact(
        case.program, case.config.clone, case.trace
    )


# ----------------------------------------------------------------------
# A profiling replay reads fields out of the header words.


def _step_tail_source(module):
    switch = BehavioralSwitch(module.build_program(), module.runtime_config())
    switch.process_many(ReplayTrace(module.make_trace(20)), into=StepSink())
    tail = switch._plan[True]
    return "".join(linecache.getlines(tail.__code__.co_filename))


def test_the_firewall_step_tail_reads_words_and_builds_no_header_dict():
    source = _step_tail_source(example_firewall)
    assert "headers[" not in source and "fresh(" not in source
    assert ">> 32 & 65535" in source  # udp.dstPort, out of its word


def test_a_written_packet_field_is_a_local():
    """telemetry writes ``ethernet.srcAddr``: its local starts as the
    word's field, and the writes go to the local."""
    source = _step_tail_source(programs.telemetry)
    assert "headers" not in source
    (start,) = [line.strip() for line in source.splitlines()
                if "_w0 >> 16 & 281474976710655" in line and "=" in line
                and not line.strip().startswith(("if", "_t"))]
    local = start.split(" = ")[0]
    assert local.startswith("_m")
    assert sum(line.strip().startswith(f"{local} = ")
               for line in source.splitlines()) >= 2


def test_a_program_that_removes_a_header_runs_on_words():
    """nat_gre removes ``gre``: its step tail copies the path's valid
    set and discards from the copy, and builds no header dict."""
    source = _step_tail_source(nat_gre)
    assert "headers" not in source and "fresh(" not in source
    assert "valid = set(base)" in source
    assert "valid.discard('gre')" in source


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
    """Counts the packets the emitted parsers of switches built from
    now on parse."""
    parses = []

    def counting_parser(program):
        parser = build_parser(program)

        def parse(data):
            parses.append(data)
            return parser.parse(data)

        return parser._replace(parse=parse)

    monkeypatch.setattr(switch_module, "build_parser", counting_parser)
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
    """The auto-valid profiling header is something the parser adds, so
    an instrumented program may not share the plain program's parses;
    an equal-content clone may."""
    program = example_firewall.build_program()
    key = BehavioralSwitch(program)._parser.key
    assert BehavioralSwitch(program.clone())._parser.key == key
    assert BehavioralSwitch(instrument(program).program)._parser.key != key


# ----------------------------------------------------------------------
# Lifetime: parses live and die with the session's trace.


def test_a_pickled_replay_trace_is_a_plain_list():
    """What the name has always guarded: no parse travels in a pickle.
    The packets do, and the fingerprint with them, so the receiving side
    does not hash the trace again."""
    trace = example_firewall.make_trace(50)
    shared = ReplayTrace(trace)
    BehavioralSwitch(
        example_firewall.build_program(), example_firewall.runtime_config()
    ).process_many(shared)
    assert shared.parses
    payload = pickle.dumps(shared)
    assert b"ParseTemplate" not in payload
    assert b"repro.sim.parser_engine" not in payload
    restored = pickle.loads(payload)
    assert restored.parses == {}
    assert restored == trace
    assert restored.fingerprint == trace_fingerprint(trace)
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
