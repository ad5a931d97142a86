"""Fleet benchmark: one shared-store fleet vs N independent runs.

ISSUE 8's acceptance bars: a fleet run's per-switch results must be
canonically identical to N independent ``P2GO.run()`` invocations over
the same inputs (for any coordinator worker count), and a cold fleet
over one shared store must show **cross-switch probe reuse** — probes
answered from entries another switch paid for.  This bench runs one
fabric both ways:

* **independent** — every switch as its own storeless run, serially:
  what N operators each running ``p2go optimize`` would pay;
* **fleet** — the same specs through :func:`~repro.core.fleet.run_fleet`
  on a process pool against one fresh shared store, probe leases on.

It checks per-switch equivalence, that the fleet executed strictly
fewer probes than it asked (the shared store at work), and reports wall
time.  The committed ``BENCH_fleet.json`` at the repo root records
both; refresh it with::

    PYTHONPATH=src python benchmarks/bench_fleet.py --write-baseline

CI runs the dependency-free quick mode instead::

    PYTHONPATH=src python benchmarks/bench_fleet.py --quick

which re-checks equivalence and reuse on a small 4-switch fabric and
compares the aggregate probe counts against the committed baseline
exactly.  They are deterministic *because of the lease protocol*: every
distinct fingerprinted probe executes exactly once fleet-wide (the
loser of a claim race waits and scores a disk hit), so the aggregate
execution/hit split is independent of scheduling and worker count.
Wall time is printed for context but never gates: shared CI runners
are too noisy for a timing threshold, while the counters are
bit-stable.  The store is a fresh temporary directory per measurement —
``$P2GO_STORE`` is deliberately not used, so the gate cannot be warmed
(or poisoned) by leftover state.
"""

import json
import os
import tempfile
import time
from pathlib import Path

from repro.core.fleet import build_fabric, run_fleet, switch_fingerprint

BASELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_fleet.json"

#: Full mode: 8 switches over the 4 default families (each appears
#: twice — the cross-switch reuse the shared store exists for).
FULL_SIZE = 8
FULL_PACKETS = 1200
#: Quick mode: 4 switches over 3 cheap families (nat_gre repeats).
QUICK_SIZE = 4
QUICK_FAMILIES = ("nat_gre", "sourceguard", "cgnat")
QUICK_PACKETS = 400

WORKERS = 4
TRACE_SEED = 0


#: Aggregate keys that are deterministic under the lease protocol and
#: therefore safe to gate on (timing keys never are).
COUNT_KEYS = (
    "switches",
    "stages_before",
    "stages_after",
    "stages_reclaimed",
    "probe_calls",
    "probe_executions",
    "probe_disk_hits",
)


def _counts(aggregate: dict) -> dict:
    return {key: aggregate[key] for key in COUNT_KEYS}


def measure_fleet(
    size: int = FULL_SIZE,
    packets: int = FULL_PACKETS,
    families=None,
    workers: int = WORKERS,
):
    """One fabric, run independently and as a shared-store fleet."""
    kwargs = {"seed": TRACE_SEED, "packets": packets}
    if families is not None:
        kwargs["families"] = families
    specs = build_fabric(size, **kwargs)

    t0 = time.perf_counter()
    independent = run_fleet(specs, store=False, workers=1)
    independent_seconds = time.perf_counter() - t0

    with tempfile.TemporaryDirectory(prefix="p2go-bench-fleet-") as tmp:
        t0 = time.perf_counter()
        fleet = run_fleet(specs, store=tmp, workers=workers)
        fleet_seconds = time.perf_counter() - t0

    equivalent = [
        switch_fingerprint(ours.result)
        == switch_fingerprint(theirs.result)
        and ours.result.initial_profile.same_behavior_as(
            theirs.result.initial_profile
        )
        for ours, theirs in zip(fleet.switches, independent.switches)
    ]
    fleet_agg = fleet.aggregate()
    independent_agg = independent.aggregate()
    return {
        "switches": [spec.name for spec in specs],
        "packets": packets,
        "workers": workers,
        "equivalent": all(equivalent),
        "reuse": fleet_agg["probe_disk_hits"] > 0,
        "reuse_rate": round(fleet_agg["disk_reuse_rate"], 4),
        "lease_waits": fleet_agg["lease_waits"],
        "lease_wait_hits": fleet_agg["lease_wait_hits"],
        "leases_reaped": fleet_agg["leases_reaped"],
        "independent_seconds": round(independent_seconds, 3),
        "fleet_seconds": round(fleet_seconds, 3),
        "speedup": round(independent_seconds / fleet_seconds, 2),
        "fleet_counts": _counts(fleet_agg),
        "independent_counts": _counts(independent_agg),
    }


def render_fleet(measured: dict) -> str:
    fleet = measured["fleet_counts"]
    independent = measured["independent_counts"]
    return "\n".join([
        f"P2GO fleet vs {fleet['switches']} independent runs "
        f"(x{measured['packets']} packets, "
        f"{measured['workers']} workers)",
        f"  independent (serial): {measured['independent_seconds']:>8.2f} s"
        f"   {independent['probe_executions']:>4d} probes executed",
        f"  fleet (shared store): {measured['fleet_seconds']:>8.2f} s"
        f"   {fleet['probe_executions']:>4d} probes executed, "
        f"{fleet['probe_disk_hits']} store hits "
        f"(reuse {measured['reuse_rate']:.1%})",
        f"  speedup:              {measured['speedup']:>8.2f}x",
        f"  leases:               {measured['lease_waits']} waits, "
        f"{measured['lease_wait_hits']} resolved as hits, "
        f"{measured['leases_reaped']} reaped",
        f"  stages reclaimed:     {fleet['stages_reclaimed']:>8d}",
        f"  equivalent:           {str(measured['equivalent']):>8s}",
    ])


def test_fleet_bench(record):
    """The fleet acceptance bars: per-switch equivalence to independent
    runs, cross-switch reuse through the shared store."""
    measured = measure_fleet()
    record("fleet_bench", render_fleet(measured))
    assert measured["equivalent"]
    assert measured["reuse"]
    if os.environ.get("P2GO_WRITE_BASELINE") == "1":
        write_baseline()


def write_baseline() -> dict:
    """Measure both fabric sizes and refresh BENCH_fleet.json."""
    baseline = {
        "full": measure_fleet(),
        "quick": measure_fleet(
            QUICK_SIZE, QUICK_PACKETS, families=QUICK_FAMILIES
        ),
    }
    BASELINE_PATH.write_text(json.dumps(baseline, indent=2) + "\n")
    return baseline


# ----------------------------------------------------------------------
# Quick mode: dependency-free CI gate (no pytest / pytest-benchmark).


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="Fleet-vs-independent benchmark (see module docstring)"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small 4-switch fabric; fail on non-equivalence, on zero "
        "cross-switch reuse, or on aggregate probe-count drift vs the "
        "committed BENCH_fleet.json (wall time is printed but never "
        "gates)",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="refresh BENCH_fleet.json with this run's numbers",
    )
    args = parser.parse_args(argv)

    if args.write_baseline:
        baseline = write_baseline()
        print(render_fleet(baseline["full"]))
        print(f"baseline written to {BASELINE_PATH}")
        return 0

    if args.quick:
        measured = measure_fleet(
            QUICK_SIZE, QUICK_PACKETS, families=QUICK_FAMILIES
        )
    else:
        measured = measure_fleet()
    print(render_fleet(measured))

    if not measured["equivalent"]:
        print(
            "FAIL: a fleet switch diverged from its independent "
            "standalone run"
        )
        return 1
    if not measured["reuse"]:
        print(
            "FAIL: the cold fleet scored zero cross-switch store hits "
            "(the shared store bought nothing)"
        )
        return 1
    if measured["leases_reaped"]:
        print(
            f"FAIL: {measured['leases_reaped']} leases reaped — a "
            "worker looked dead mid-probe on a healthy run"
        )
        return 1

    if args.quick:
        if not BASELINE_PATH.exists():
            print(f"FAIL: committed baseline {BASELINE_PATH} is missing")
            return 1
        baseline = json.loads(BASELINE_PATH.read_text())["quick"]
        for side in ("fleet_counts", "independent_counts"):
            if measured[side] != baseline[side]:
                print(
                    f"FAIL: {side} drifted from the committed baseline: "
                    f"{measured[side]} != {baseline[side]}"
                )
                return 1
        print(
            f"  baseline:             {baseline['fleet_seconds']:>8.2f} s "
            "fleet (informational — the gate is counters-only)"
        )
        print("OK: counters match the committed baseline")
    else:
        print("OK: fleet equivalent to independent runs, with reuse")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
