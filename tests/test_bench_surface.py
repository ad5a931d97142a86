"""The benchmark surface stays one: ``benchmarks/stack`` measures,
``BENCH_stack.json`` pins its exact counts, ``check_counts.py`` compares
— and the per-layer quick-benches it replaced do not drift back.  No
benchmark runs here; the gate is fed literal JSON lines.
"""

import importlib
import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro import programs
from repro.cli import main
from repro.core.pipeline import P2GO
from repro.core.fleet import family_inputs
from repro.core.session import config_fingerprint
from repro.sim.runtime import RuntimeConfig

ROOT = Path(__file__).resolve().parent.parent
BASELINE = ROOT / "BENCH_stack.json"

sys.path.insert(0, str(ROOT / "benchmarks" / "stack"))
from metrics import EXACT_COUNTS, TARGETS  # noqa: E402
from workloads import replay_perf  # noqa: E402

sys.path.pop(0)


def check_counts(counts):
    """Run the gate as CI does: the run's last stdout line on stdin."""
    line = json.dumps(
        {
            "metrics": {
                key: {"value": value, "unit": "count"}
                for key, value in counts.items()
            }
        }
    )
    return subprocess.run(
        [sys.executable, "benchmarks/check_counts.py", str(BASELINE)],
        input=line, capture_output=True, text=True, cwd=ROOT,
    )


def test_baseline_keys_are_workloads_times_exact_counts():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        f"{workload['name']}.{count}"
        for workload in benchmark["workloads"]
        for count in EXACT_COUNTS
    }
    baseline = json.loads(BASELINE.read_text())
    assert set(baseline) == expected
    assert all(type(value) is int for value in baseline.values())


def test_check_counts_passes_a_matching_line():
    done = check_counts(json.loads(BASELINE.read_text()))
    assert done.returncode == 0, done.stdout + done.stderr


def test_check_counts_names_every_drifted_count():
    counts = json.loads(BASELINE.read_text())
    counts["opt_warm.session.compile_exec"] += 1
    counts["serve_drift.serve.swaps"] -= 1
    done = check_counts(counts)
    assert done.returncode != 0
    assert "opt_warm.session.compile_exec: baseline 0, run 1" in done.stdout
    assert "serve_drift.serve.swaps" in done.stdout
    assert "2 of 90" in done.stdout


def test_check_counts_fails_on_a_missing_count():
    counts = json.loads(BASELINE.read_text())
    del counts["explore_grid.stages_saved"]
    done = check_counts(counts)
    assert done.returncode != 0
    assert "explore_grid.stages_saved" in done.stdout


@pytest.mark.parametrize(
    "module, path", sorted({(module, path) for _span, module, path in TARGETS})
)
def test_every_wrap_target_resolves(module, path):
    """The traced run patches ``vars(owner)[attribute]``: a rename under
    ``src/`` must fail here, not only in the benchmark.  The patch is a
    plain wrapper function, so the target must be one too (a
    staticmethod or property would change meaning once wrapped)."""
    *owners, attribute = path.split(".")
    owner = importlib.import_module(module)
    for name in owners:
        owner = getattr(owner, name)
    assert attribute in vars(owner)
    assert inspect.isfunction(vars(owner)[attribute])


def test_replay_reader_sees_every_executed_replay():
    """``workloads.replay_perf`` reads each outcome's ``profiling_perf``
    (packets, and the retired cache counts as 0): its packets are the
    executed replays times the trace, the CI gate's identity."""
    program, config, trace, target = family_inputs(
        "example_firewall", packets=200
    )
    result = P2GO(program, config, trace, target, store=False).run()
    packets, hit_ratio = replay_perf([result])
    assert packets == result.session_counters.profile_executions * len(trace)
    assert hit_ratio == 0.0


def test_retired_quick_benches_stay_retired():
    """One committed baseline, one harness: the five per-layer scripts
    and their JSON may not drift back beside ``benchmarks/stack``."""
    assert sorted(p.name for p in ROOT.glob("BENCH_*.json")) == [
        "BENCH_stack.json"
    ]
    for layer in ("pipeline", "store", "fleet", "explore", "serve"):
        assert not (ROOT / "benchmarks" / f"bench_{layer}.py").exists()


def test_demo_resolves_every_bundled_program(capsys):
    assert main(["demo", "enterprise"]) == 0
    assert "Initial Program" in capsys.readouterr().out
    assert main(["demo", "common"]) == 2
    assert "unknown demo 'common'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "family", [n for n in programs.__all__ if n != "EXAMPLE_TARGET"]
)
def test_runtime_config_json_round_trip(family):
    config = family_inputs(family, packets=1)[1]
    wire = json.loads(json.dumps(config.to_json()))
    assert config_fingerprint(RuntimeConfig.from_json(wire)) == (
        config_fingerprint(config)
    )
