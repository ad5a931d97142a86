"""One layered benchmark for optimize / fleet / explore / serve.

    python3 benchmarks/stack/run.py --seed 0

runs six workloads in-process through each verb's public entry point,
checks every operation's output, and prints every metric by name with
its unit.  End-to-end metrics come from untraced repetitions; a traced
repetition per workload (timing wrappers installed from ``tracer.py``,
nothing under ``src/`` changes) yields the per-layer self times, and the
difference between the two is reported as tracing overhead.  Every
reported time is scaled to a nominal host speed, sampled beside
everything that is timed (``hostspeed.py``).

The last line of standard output is one JSON object::

    {"correct": true, "attempted": 3, "failed": 0, "metrics": {...}}

``--workload NAME`` (repeatable) selects workloads, ``--seconds`` is the
measuring time per workload, ``--trace 0`` reports the end-to-end
metrics only, ``--trace 1`` the per-layer metrics only; without
``--trace`` both are reported.  With more than one workload selected the
metric names are prefixed ``<workload>.``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from hostspeed import NOMINAL_SLICE_MS, Sampler
from metrics import (
    END_TO_END,
    EXACT_COUNTS,
    PER_LAYER,
    ROOT_SPAN,
    TARGETS,
    span_metrics,
)
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"

#: Knobs that would silently change what the verbs do.
P2GO_VARIABLES = (
    "P2GO_WORKERS",
    "P2GO_STORE",
    "P2GO_FASTPATH",
    "P2GO_REPLAY_EXECUTOR",
)
#: Every workload gets at least this many repetitions: the determinism
#: check needs two to compare.
MIN_REPETITIONS = 2
#: With several workloads, each gets the floor this many times in turn,
#: so host drift lands on all of them alike.
TURNS = 3
#: Set-up is repeated, and the median reported: at least twice (one
#: opt_warm set-up is a whole cold optimize), and a set-up of a few
#: hundredths of a second until a second has been spent or ten are done.
SETUP_REPEATS = (2, 10)
SETUP_SECONDS = 1.0


def clean_environment() -> Dict[str, str]:
    """The environment the benchmark measures in: hash seed pinned, the
    P2GO_* knobs unset, temporary files inside the checkout, and
    ``repro`` importable (here and in pool workers)."""
    env = {k: v for k, v in os.environ.items() if k not in P2GO_VARIABLES}
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(OUT / "tmp")
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    t = os.times()
    return time.process_time() + t.children_user + t.children_system


def peak_rss_mb() -> float:
    """High-water resident set: this process plus its largest child."""
    return (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    ) / 1024.0


def summary(values: List[float]) -> Dict[str, float]:
    """n, min, quartiles and max; the median is the reported value."""
    q1, median, q3 = (
        statistics.quantiles(values, n=4, method="inclusive")
        if len(values) > 1
        else (values[0],) * 3
    )
    return {
        "n": len(values),
        "min": min(values),
        "q1": q1,
        "median": median,
        "q3": q3,
        "max": max(values),
    }


UNITS = {name: unit for name, unit, *_rest in END_TO_END + PER_LAYER}


def at_nominal(value: float, unit: str, factor: float) -> float:
    """A measured time or rate, read at nominal host speed."""
    if unit in ("s", "ms"):
        return value * factor
    if unit == "1/s":
        return value / factor
    return value


@dataclass
class Interval:
    """Something timed.  ``slice_ms`` is the host-speed kernel's time
    around it, known only once the sampler has stopped (``rescale``)."""

    start: float
    end: float
    slice_ms: float = NOMINAL_SLICE_MS

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def factor(self) -> float:
        """What scales a time measured here to nominal host speed."""
        return NOMINAL_SLICE_MS / self.slice_ms

    @property
    def nominal(self) -> float:
        return self.seconds * self.factor


@dataclass
class Repetition(Interval):
    cpu: float = 0.0
    exact: Dict[str, int] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)


@dataclass
class Record:
    """Everything measured for one workload in this process."""

    workload: object
    state: object = None
    setups: List[Interval] = field(default_factory=list)
    repetitions: List[Repetition] = field(default_factory=list)
    traced: Optional[Repetition] = None
    #: Trace-derived per-layer seconds and calls of the traced operation.
    spans: Dict[str, float] = field(default_factory=dict)
    #: Simulator kernel probes: metric -> (packets per second, when).
    probes: Dict[str, Tuple[float, Interval]] = field(default_factory=dict)

    @property
    def operations(self) -> List[Repetition]:
        return self.repetitions + ([self.traced] if self.traced else [])

    @property
    def measured_seconds(self) -> float:
        return sum(rep.seconds for rep in self.repetitions)

    @property
    def intervals(self) -> List[Interval]:
        return (
            self.setups
            + self.operations
            + [when for _rate, when in self.probes.values()]
        )


def run_repetition(workload, state, tracer=None) -> Repetition:
    """One operation, timed; then observed and checked outside the
    timed region.  Each repetition gets its own store directory, deleted
    afterwards.  An operation that raises is a failed operation."""
    with tempfile.TemporaryDirectory() as store_dir:
        cpu0, t0 = cpu_seconds(), time.perf_counter()
        try:
            if tracer is None:
                outcome = workload.operate(state, store_dir, False)
            else:
                with tracer.installed(TARGETS), tracer.span(ROOT_SPAN):
                    outcome = workload.operate(state, store_dir, True)
        except Exception:
            traceback.print_exc()
            outcome = None
        rep = Repetition(t0, time.perf_counter(), cpu=cpu_seconds() - cpu0)
        if outcome is None:
            rep.failures.append("operation raised (traceback on stderr)")
        else:
            rep.exact, rep.gauges = workload.observe(state, outcome)
            rep.failures.extend(workload.check(state, outcome))
    return rep


def set_up(records: List[Record], seed: int, repeat: bool, stack) -> None:
    fewest, most = SETUP_REPEATS if repeat else (1, 1)
    for record in records:
        workload = record.workload
        while len(record.setups) < fewest or (
            len(record.setups) < most
            and sum(s.seconds for s in record.setups) < SETUP_SECONDS
        ):
            workdir = Path(stack.enter_context(tempfile.TemporaryDirectory()))
            t0 = time.perf_counter()
            record.state = workload.setup(
                seed + workload.seed_offset, workdir
            )
            record.setups.append(Interval(t0, time.perf_counter()))


def measure(records: List[Record], seconds: float) -> None:
    """Untraced repetitions, round-robin: in each turn a workload runs
    for a share of its floor, and it leaves the rotation once it has
    measured ``seconds`` over at least MIN_REPETITIONS operations."""
    share = seconds / TURNS if len(records) > 1 else seconds
    active = list(records)
    while active:
        for record in list(active):
            turn_end = record.measured_seconds + share
            while True:
                record.repetitions.append(
                    run_repetition(record.workload, record.state)
                )
                done = (
                    record.measured_seconds >= seconds
                    and len(record.repetitions) >= MIN_REPETITIONS
                )
                if done or record.measured_seconds >= turn_end:
                    break
            if done:
                active.remove(record)


def kernel_probes(workload, state) -> Dict[str, Tuple[float, Interval]]:
    """Packets per second of the simulator tiers on the workload's own
    instrumented program and trace, outside any operation."""
    from repro.core.instrument import instrument
    from repro.sim.switch import BehavioralSwitch

    program, config, trace = workload.kernel_inputs(state)
    instrumented = instrument(program)
    adapted = instrumented.adapt_config(config)

    def rate(single=False, **flags) -> Tuple[float, Interval]:
        tier = adapted.clone()
        for flag, value in flags.items():
            setattr(tier, flag, value)
        switch = BehavioralSwitch(instrumented.program, tier)
        t0 = time.perf_counter()
        if single:
            for entry in trace:
                data, port = entry if isinstance(entry, tuple) else (entry, 0)
                switch.process(data, port)
        else:
            switch.process_many(trace)
        when = Interval(t0, time.perf_counter())
        return len(trace) / when.seconds, when

    return {
        "sim.kernel.reference_pps": rate(
            enable_flow_cache=False, enable_compiled_tables=False
        ),
        "sim.kernel.cached_pps": rate(),
        "sim.kernel.fastpath_pps": rate(enable_fastpath=True),
        "sim.kernel.single_pps": rate(single=True),
    }


def trace_one(record: Record) -> None:
    """The traced repetition: spans -> per-layer seconds and calls, the
    span dump, and the kernel probes."""
    tracer = Tracer()
    record.traced = run_repetition(record.workload, record.state, tracer)
    record.spans = span_metrics(tracer.self_times())
    record.probes = kernel_probes(record.workload, record.state)
    dump = OUT / f"trace-{record.workload.name}.json"
    dump.write_text(json.dumps(tracer.chrome_trace()))


def rescale(intervals: List[Interval], sampler: Sampler) -> None:
    """Once the sampler has stopped: the host speed around everything
    that was timed."""
    for interval in intervals:
        interval.slice_ms = sampler.slice_ms(interval.start, interval.end)


def check_determinism(record: Record) -> None:
    """Every exact count must be identical across the repetitions of a
    workload (the traced one included: the serial path executes the
    same probes); a difference fails the later operation."""
    operations = [rep for rep in record.operations if rep.exact]
    for number, rep in enumerate(operations[1:], start=2):
        for key in EXACT_COUNTS:
            first = operations[0].exact.get(key, 0)
            this = rep.exact.get(key, 0)
            if first != this:
                rep.failures.append(
                    f"{key} was {first} on operation 1 and {this} on "
                    f"operation {number}"
                )


def layer_metrics(record: Record) -> Dict[str, float]:
    """Every per-layer metric of one workload, zero where a layer does
    no work: trace-derived seconds and calls, exact counts, gauge
    medians over the untraced repetitions, set-up timers and ratios.
    Times and rates are read at nominal host speed, each scaled by the
    host speed around the interval it was measured in."""
    reps = record.repetitions
    values = dict.fromkeys((name for name, _u, _b in PER_LAYER), 0.0)
    for key, value in record.spans.items():
        values[key] = at_nominal(value, UNITS[key], record.traced.factor)
    for key, (rate, when) in record.probes.items():
        values[key] = at_nominal(rate, UNITS[key], when.factor)
    values.update(reps[0].exact)
    for key in {key for rep in reps for key in rep.gauges}:
        values[key] = statistics.median(
            at_nominal(rep.gauges[key], UNITS[key], rep.factor)
            for rep in reps
            if key in rep.gauges
        )
    for key, value in record.state.timers.items():
        values[key] = at_nominal(value, UNITS[key], record.setups[-1].factor)
    values["harness.wall_raw_s"] = statistics.median(r.seconds for r in reps)
    values["harness.cpu_raw_s"] = statistics.median(r.cpu for r in reps)
    values["harness.calib_ms"] = statistics.median(r.slice_ms for r in reps)
    calls = values["session.compile_calls"] + values["session.profile_calls"]
    if calls:
        executed = (
            values["session.compile_exec"] + values["session.profile_exec"]
        )
        disk = (
            values["session.compile_disk_hits"]
            + values["session.profile_disk_hits"]
        )
        values["session.cache_answer_ratio"] = 1 - executed / calls
        values["session.disk_reuse_ratio"] = disk / calls
    if values["sim.replay_s"]:
        values["sim.replay_pps"] = (
            values["sim.replay_pkts"] / values["sim.replay_s"]
        )
    if record.traced is not None:
        # CPU, not wall: the traced run of the pooled verbs is serial.
        values["harness.trace_overhead_ratio"] = (
            record.traced.cpu
            * record.traced.factor
            / statistics.median(r.cpu * r.factor for r in reps)
            - 1
        )
    return values


def end_to_end_metrics(record: Record, imports: Interval) -> Dict:
    """Seconds at nominal host speed (see hostspeed.py); the raw medians
    are the per-layer ``harness.*_raw_s``."""
    reps = record.repetitions
    setups = [setup.nominal for setup in record.setups]
    return {
        "wall_s": summary([rep.nominal for rep in reps]),
        "cpu_s": summary([rep.cpu * rep.factor for rep in reps]),
        # Imports happen once per process; everything else in set-up is
        # repeated and the median taken.
        "setup_s": {
            **summary(setups),
            "median": imports.nominal + statistics.median(setups),
            "imports": imports.nominal,
        },
        "peak_rss_mb": summary([peak_rss_mb()]),
    }


def environment(args) -> Dict:
    """Called before anything is loaded: the forked ``git`` counts
    towards the children's peak RSS with whatever this process holds."""
    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
        )
        if done.returncode == 0:
            commit = done.stdout.strip()
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "seed": args.seed,
        "seconds": args.seconds,
    }


def report(
    records: List[Record], args, imports: Interval, where: Dict
) -> int:
    """Print every metric by name with its unit, save the full numbers,
    end with the one-line JSON result; the exit code, non-zero if any
    operation failed."""
    where["repetitions"] = {
        r.workload.name: len(r.repetitions) for r in records
    }
    full = {"environment": where, "workloads": {}}
    metrics: Dict[str, Dict] = {}
    attempted = failed = 0
    print("environment " + json.dumps(full["environment"]))
    for record in records:
        name = record.workload.name
        prefix = f"{name}." if len(records) > 1 else ""
        bad = [rep for rep in record.operations if rep.failures]
        attempted += len(record.operations)
        failed += len(bad)
        print(
            f"\n== {name}: {len(record.repetitions)} untraced"
            f"{' + 1 traced' if record.traced else ''} operations, "
            f"{len(bad)} failed"
        )
        for rep in bad:
            for failure in rep.failures:
                print(f"  FAILED: {failure}")
        entry = {"failures": [rep.failures for rep in bad]}
        if args.trace != 1:
            entry["end_to_end"] = end_to_end_metrics(record, imports)
            for metric, stats in entry["end_to_end"].items():
                print(
                    f"  {metric:<34}{stats['median']:>14.6g} "
                    f"{UNITS[metric]:<6}n={stats['n']} "
                    f"min={stats['min']:.4g} q1={stats['q1']:.4g} "
                    f"q3={stats['q3']:.4g} max={stats['max']:.4g}"
                )
                metrics[prefix + metric] = {
                    "value": stats["median"],
                    "unit": UNITS[metric],
                }
        if args.trace != 0:
            entry["per_layer"] = layer_metrics(record)
            for metric, value in entry["per_layer"].items():
                print(f"  {metric:<34}{value:>14.6g} {UNITS[metric]}")
                metrics[prefix + metric] = {
                    "value": value,
                    "unit": UNITS[metric],
                }
        full["workloads"][name] = entry
    OUT.mkdir(exist_ok=True)
    results = OUT / f"results-seed{args.seed}.json"
    results.write_text(json.dumps(full, indent=1))
    print(f"\nfull numbers in {results.relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 1 if failed else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", default=[])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    args = parser.parse_args()

    env = clean_environment()
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    if env != dict(os.environ):
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    where = environment(args)
    sampler = Sampler()
    sampler.start()
    try:
        t0 = time.perf_counter()
        from workloads import WORKLOADS

        imports = Interval(t0, time.perf_counter())

        known = [workload.name for workload in WORKLOADS]
        for name in args.workload:
            if name not in known:
                parser.error(
                    f"unknown workload {name!r}; "
                    f"choose from {', '.join(known)}"
                )
        records = [
            Record(workload)
            for workload in WORKLOADS
            if not args.workload or workload.name in args.workload
        ]
        with ExitStack() as stack:
            # Only set-up time needs set-up repeated, and a per-layer run
            # does not report it.
            set_up(records, args.seed, args.trace != 1, stack)
            measure(records, args.seconds)
            if args.trace != 0:
                for record in records:
                    trace_one(record)
    finally:
        sampler.stop()
    rescale(
        [imports] + [i for record in records for i in record.intervals],
        sampler,
    )
    for record in records:
        check_determinism(record)
    return report(records, args, imports, where)


if __name__ == "__main__":
    sys.exit(main())
