"""Self-test of the stack benchmark's tracer, metric tables and checks.

Run with ``pytest benchmarks/stack``; tier-1 (``testpaths = tests``)
does not collect it.
"""

import dataclasses
import json
import re
from pathlib import Path
from types import SimpleNamespace

import pytest

import hostspeed
import metrics
import run
import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


class FakeClock:
    """Advances only when told to, so self times are exact."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, seconds):
        self.now += seconds


def test_self_time_is_duration_minus_children():
    clock = FakeClock()
    tracer = Tracer(clock)

    def leaf():
        clock.tick(2)

    def middle():
        clock.tick(1)
        traced_leaf()
        traced_leaf()
        clock.tick(3)

    traced_leaf = tracer.wrap("leaf", leaf)
    traced_middle = tracer.wrap("middle", middle)
    with tracer.span("root"):
        clock.tick(5)
        traced_middle()
    assert tracer.self_times() == {
        "root": (5.0, 1),
        "middle": (4.0, 1),
        "leaf": (4.0, 2),
    }
    parents = [span[3] and span[3][0] for span in tracer.spans]
    assert parents == [None, "root", "middle", "middle"]


def test_recursive_wrapper_counts_each_level_once():
    clock = FakeClock()
    tracer = Tracer(clock)

    def descend(depth):
        clock.tick(1)
        if depth:
            traced(depth - 1)

    traced = tracer.wrap("descend", descend)
    traced(3)
    assert tracer.self_times() == {"descend": (4.0, 4)}


def test_exception_unwinds_the_span_stack():
    clock = FakeClock()
    tracer = Tracer(clock)

    def boom():
        clock.tick(1)
        raise ValueError("boom")

    traced = tracer.wrap("boom", boom)
    with tracer.span("root"):
        with pytest.raises(ValueError):
            traced()
        with tracer.span("after"):
            clock.tick(2)
    assert all(span[2] is not None for span in tracer.spans)
    after = next(s for s in tracer.spans if s[0] == "after")
    assert after[3][0] == "root"
    assert tracer.self_times()["boom"] == (1.0, 1)


def test_wrappers_are_installed_everywhere_and_restored():
    import repro.core.session as session
    import repro.target.compiler as compiler
    from repro.sim.switch import BehavioralSwitch

    function = compiler.compile_program
    method = BehavioralSwitch.process_many
    assert session.compile_program is function
    tracer = Tracer()
    with tracer.installed(metrics.TARGETS):
        # `from x import f` copies are patched too, not just x.f.
        assert compiler.compile_program is not function
        assert session.compile_program is compiler.compile_program
        assert compiler.compile_program.__wrapped__ is function
        assert BehavioralSwitch.process_many.__wrapped__ is method
    assert compiler.compile_program is function
    assert session.compile_program is function
    assert BehavioralSwitch.process_many is method
    assert tracer.spans == []


def test_chrome_trace_links_parents():
    clock = FakeClock()
    tracer = Tracer(clock)
    with tracer.span("root"):
        clock.tick(1)
        with tracer.span("child"):
            clock.tick(0.5)
    events = tracer.chrome_trace()["traceEvents"]
    assert [e["name"] for e in events] == ["root", "child"]
    assert events[1]["args"]["parent"] == events[0]["args"]["id"]
    assert events[0]["dur"] == 1.5e6 and events[1]["ts"] == 1e6
    json.dumps(events)


def test_times_are_scaled_by_the_slices_around_them():
    sampler = hostspeed.Sampler()
    sampler.samples = [
        (0.0, 0.004),
        (1.0, 0.008),
        (1.2, 0.008),
        (1.4, 0.008),
        (1.6, 0.008),
        (1.8, 0.100),  # pre-empted: dropped as the slowest of six
        (2.0, 0.001),  # dropped as the fastest
        (9.0, 0.002),
    ]
    assert sampler.slice_ms(1.2, 1.4) == pytest.approx(8.0)
    # Nothing within the padding: the nearest slice stands in.
    assert sampler.slice_ms(7.0, 7.1) == pytest.approx(2.0)
    interval = run.Interval(1.2, 1.4)
    assert interval.factor == 1.0
    run.rescale([interval], sampler)
    assert interval.factor == pytest.approx(hostspeed.NOMINAL_SLICE_MS / 8.0)
    assert interval.nominal == pytest.approx(0.2 * interval.factor)
    assert run.at_nominal(10.0, "1/s", 0.5) == 20.0
    assert run.at_nominal(10.0, "ms", 0.5) == 5.0
    assert run.at_nominal(10.0, "count", 0.5) == 10.0


def test_the_sampler_thread_samples_and_stops():
    sampler = hostspeed.Sampler()
    sampler.start()
    sampler.stop()
    # One slice on starting, one on stopping.
    assert len(sampler.samples) >= 2
    assert all(seconds > 0 for _when, seconds in sampler.samples)


def test_metric_tables_obey_the_contract():
    names = [m[0] for m in metrics.END_TO_END + metrics.PER_LAYER]
    assert len(set(names)) == len(names)
    assert all(NAME.match(name) for name in names)
    assert all(NAME.match(w.name) for w in workloads.WORKLOADS)
    assert len(workloads.WORKLOADS) <= 8
    assert len(metrics.END_TO_END) <= 16
    assert len(metrics.PER_LAYER) <= 128
    assert all(0 < bound <= 0.25 for *_rest, bound in metrics.END_TO_END)
    assert "setup_s" in dict((m[0], m) for m in metrics.END_TO_END)
    span_names = {name for name, _module, _path in metrics.TARGETS}
    covered = {n for names in metrics.SPAN_SECONDS.values() for n in names}
    assert span_names == covered


def test_benchmark_json_lists_the_same_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {
        "command",
        "paths",
        "run_seconds",
        "workloads",
        "end_to_end",
        "per_layer",
    }
    assert spec["paths"] == ["benchmarks/stack"]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS
    ]
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
    assert [
        (m["name"], m["unit"], m["better"], m["bound"])
        for m in spec["end_to_end"]
    ] == metrics.END_TO_END
    assert [
        (m["name"], m["unit"], m["better"]) for m in spec["per_layer"]
    ] == metrics.PER_LAYER


@pytest.fixture(scope="module")
def small_optimize(tmp_path_factory):
    workload = workloads.OptStateful()
    workload.packets = 600
    state = workload.setup(0, tmp_path_factory.mktemp("setup"))
    return workload, state, workload.operate(state, "", False)


def test_a_wrong_optimized_program_fails_the_run(small_optimize, capsys):
    from repro.fuzz.harness import break_optimizer

    workload, state, result = small_optimize
    assert workload.check(state, result) == []
    sabotaged = dataclasses.replace(
        result, optimized_program=break_optimizer(result.optimized_program)
    )
    failures = workload.check(state, sabotaged)
    assert failures and "disagrees with the original" in failures[0]

    record = run.Record(workload, state=state, setups=[run.Interval(0, 0.1)])
    exact, gauges = workload.observe(state, result)
    record.repetitions = [
        run.Repetition(0, 1, exact=exact, gauges=gauges),
        run.Repetition(1, 2, exact=exact, gauges=gauges, failures=failures),
    ]
    args = SimpleNamespace(seed=0, seconds=1.0, trace=0)
    assert run.report([record], args, run.Interval(0, 0.1), {}) == 1
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] is False
    assert (last["attempted"], last["failed"]) == (2, 1)
    assert set(last["metrics"]) == {m[0] for m in metrics.END_TO_END}


def test_a_count_that_differs_between_repetitions_fails(small_optimize):
    workload, state, result = small_optimize
    exact, gauges = workload.observe(state, result)
    drifted = dict(exact, stages_saved=exact["stages_saved"] + 1)
    record = run.Record(workload, state=state)
    record.repetitions = [
        run.Repetition(0, 1, exact=exact, gauges=gauges),
        run.Repetition(1, 2, exact=drifted, gauges=gauges),
    ]
    run.check_determinism(record)
    assert record.repetitions[0].failures == []
    assert "stages_saved was" in record.repetitions[1].failures[0]


def test_every_reported_layer_metric_is_declared(small_optimize):
    workload, state, result = small_optimize
    exact, gauges = workload.observe(state, result)
    record = run.Record(workload, state=state, setups=[run.Interval(0, 0.1)])
    record.repetitions = [
        run.Repetition(0, 1, cpu=1.0, exact=exact, gauges=gauges)
    ]
    declared = [name for name, _unit, _better in metrics.PER_LAYER]
    assert list(run.layer_metrics(record)) == declared
