"""The fleet coordinator / run-orchestration layer (ISSUE 8).

Pins the fleet contract of :mod:`repro.core.fleet`: per-switch results
canonically identical to N independent ``P2GO.run()`` invocations for
any coordinator worker count, deterministic merge in submission order,
cross-switch probe reuse through the one shared store (>0 on a cold
fabric whose families repeat), and a warm second fleet that executes
nothing at all.
"""

import copy
import functools
import pickle
import time

import pytest

from repro.core.fanout import run_many
from repro.core.fleet import (
    DEFAULT_FAMILIES,
    FleetResult,
    build_fabric,
    family_inputs,
    run_fleet,
    switch_fingerprint,
)
from repro.core.pipeline import P2GO
from repro.core.report import render_fleet_report
from repro.core.session import trace_fingerprint
from repro.core.store import SessionStore

#: Small per-switch traces: the fabric below runs ~15 pipeline phases.
PACKETS = 160

#: 6 switches over the 4 default families: enterprise and nat_gre each
#: appear twice, which is what cold cross-switch reuse needs.
FABRIC_SIZE = 6


@pytest.fixture(scope="module")
def fabric():
    return build_fabric(FABRIC_SIZE, seed=5, packets=PACKETS)


@pytest.fixture(scope="module")
def independent(fabric):
    """The baseline: each switch as its own storeless P2GO run."""
    return [
        P2GO(
            spec.program,
            spec.config,
            spec.trace,
            spec.target,
            store=False,
        ).run()
        for spec in fabric
    ]


@pytest.fixture(scope="module")
def fleet_parallel(fabric, tmp_path_factory):
    """One cold fleet over a shared store on a 3-worker process pool."""
    root = tmp_path_factory.mktemp("fleet") / "store"
    return run_fleet(fabric, store=root, workers=3)


class TestBuildFabric:
    def test_rejects_empty_fabric(self):
        with pytest.raises(ValueError):
            build_fabric(0)

    def test_rejects_no_families(self):
        with pytest.raises(ValueError):
            build_fabric(4, families=())

    def test_cycles_families_in_order(self, fabric):
        names = [spec.name for spec in fabric]
        assert names == [
            f"sw{i:02d}-{DEFAULT_FAMILIES[i % len(DEFAULT_FAMILIES)]}"
            for i in range(FABRIC_SIZE)
        ]

    def test_same_family_switches_share_program_not_trace(self, fabric):
        first, second = fabric[0], fabric[4]  # both enterprise
        assert first.program.name == second.program.name
        assert trace_fingerprint(first.trace) != trace_fingerprint(
            second.trace
        )

    def test_type_error_inside_runtime_config_propagates(
        self, monkeypatch
    ):
        """Regression: a TypeError raised *by* a family's
        ``runtime_config(program)`` was mistaken for "takes no program"
        and silently retried without one."""
        from repro.programs import enterprise

        real = enterprise.runtime_config

        def broken(program=None):
            if program is not None:
                raise TypeError("bad entry")
            return real()

        monkeypatch.setattr(enterprise, "runtime_config", broken)
        with pytest.raises(TypeError, match="bad entry"):
            family_inputs("enterprise", packets=8)

    def test_fabric_is_seed_deterministic(self, fabric):
        again = build_fabric(FABRIC_SIZE, seed=5, packets=PACKETS)
        assert [trace_fingerprint(s.trace) for s in again] == [
            trace_fingerprint(s.trace) for s in fabric
        ]


class TestEquivalence:
    """Sharing changes who pays for a probe, never the outcome."""

    def test_parallel_fleet_matches_independent_runs(
        self, fleet_parallel, independent
    ):
        assert [
            switch_fingerprint(s.result) for s in fleet_parallel.switches
        ] == [switch_fingerprint(r) for r in independent]

    def test_profiles_match_independent_runs(
        self, fleet_parallel, independent
    ):
        for switch, baseline in zip(fleet_parallel.switches, independent):
            assert switch.result.initial_profile.same_behavior_as(
                baseline.initial_profile
            )

    def test_serial_fleet_matches_parallel_fleet(
        self, fabric, fleet_parallel, tmp_path
    ):
        serial = run_fleet(fabric, store=tmp_path / "store", workers=1)
        assert [
            switch_fingerprint(s.result) for s in serial.switches
        ] == [
            switch_fingerprint(s.result) for s in fleet_parallel.switches
        ]

    def test_results_merge_in_submission_order(
        self, fabric, fleet_parallel
    ):
        assert [s.name for s in fleet_parallel.switches] == [
            spec.name for spec in fabric
        ]

    def test_pickled_run_executes_to_the_same_result(
        self, fabric, independent
    ):
        """The spec *is* the run: what crosses the pool boundary is the
        SwitchRun itself, and it executes there to the standalone
        result."""
        run = pickle.loads(pickle.dumps(fabric[1]))
        assert run.name == fabric[1].name
        assert switch_fingerprint(run.execute()) == switch_fingerprint(
            independent[1]
        )


class TestSharedStoreReuse:
    def test_cold_fleet_reuses_probes_across_switches(
        self, fleet_parallel
    ):
        agg = fleet_parallel.aggregate()
        assert agg["probe_disk_hits"] > 0
        assert agg["disk_reuse_rate"] > 0
        # Reuse means the fabric executed strictly fewer probes than it
        # asked for, over and above what each switch's own memo caught.
        assert agg["probe_executions"] < agg["probe_calls"]

    def test_leases_resolve_as_hits_not_duplicates(self, fleet_parallel):
        agg = fleet_parallel.aggregate()
        # Every executed compile/profile is leased; so is each analysis
        # one of them asked for, unless another switch was building the
        # same structure right then (executed unleased, never waited on).
        analyses = sum(
            switch.result.session_counters.analysis_executions
            for switch in fleet_parallel.switches
        )
        assert (
            agg["probe_executions"]
            <= agg["lease_claims"]
            <= agg["probe_executions"] + analyses
        )
        assert agg["lease_claims"] > agg["probe_executions"]
        assert agg["lease_wait_hits"] == agg["lease_waits"]
        assert agg["leases_reaped"] == 0

    def test_warm_second_fleet_executes_nothing(
        self, fabric, fleet_parallel
    ):
        warm = run_fleet(
            fabric, store=fleet_parallel.store_root, workers=3
        )
        agg = warm.aggregate()
        assert agg["probe_executions"] == 0
        assert agg["probe_disk_hits"] > 0
        assert [
            switch_fingerprint(s.result) for s in warm.switches
        ] == [
            switch_fingerprint(s.result) for s in fleet_parallel.switches
        ]

    def test_storeless_fleet_has_no_reuse_and_no_leases(self, fabric):
        fleet = run_fleet(fabric[:2], store=False, workers=1)
        assert fleet.store_root is None
        agg = fleet.aggregate()
        assert agg["probe_disk_hits"] == 0
        assert agg["lease_claims"] == 0
        assert all(
            s.result.store_stats is None for s in fleet.switches
        )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_switches_keep_the_store_handles_size_cap(
        self, fabric, tmp_path, workers
    ):
        """Every switch reopens the shared store with the caller's
        settings: a two-switch fleet on a 20 kB cap ends under it (it
        wrote ~188 kB and evicted nothing when each handle fell back to
        the default cap)."""
        cap = 20_000
        store = SessionStore(tmp_path / "store", max_bytes=cap)
        fleet = run_fleet(fabric[:2], store=store, workers=workers)
        assert [s.result.store_stats["max_bytes"] for s in fleet.switches] == [
            cap, cap,
        ]
        assert store.stats()["total_bytes"] <= cap

    def test_switches_keep_the_store_handles_code_fingerprint(
        self, fabric, tmp_path
    ):
        store = SessionStore(tmp_path / "store", code_fp="pinned")
        fleet = run_fleet(fabric[:1], store=store, workers=1)
        assert fleet.switches[0].result.store_stats["code"] == "pinned"
        assert store.stats()["profile_entries"] > 0


class TestAggregateAndReport:
    def test_aggregate_totals_are_sums(self, fleet_parallel):
        agg = fleet_parallel.aggregate()
        assert agg["switches"] == FABRIC_SIZE
        assert agg["stages_before"] == sum(
            s.result.stages_before for s in fleet_parallel.switches
        )
        assert agg["stages_after"] == sum(
            s.result.stages_after for s in fleet_parallel.switches
        )
        assert agg["stages_reclaimed"] == (
            agg["stages_before"] - agg["stages_after"]
        )
        assert agg["stages_reclaimed"] > 0

    def test_aggregate_is_cached(self, fleet_parallel):
        assert fleet_parallel.aggregate() is fleet_parallel.aggregate()

    def test_report_names_every_switch(self, fleet_parallel):
        report = render_fleet_report(fleet_parallel)
        for switch in fleet_parallel.switches:
            assert switch.name in report
        assert "stages reclaimed:" in report
        assert "cross-switch reuse" in report
        assert "leases:" in report
        assert str(fleet_parallel.store_root) in report

    def test_storeless_report_omits_store_lines(self, fabric):
        fleet = run_fleet(fabric[:1], store=False, workers=1)
        report = render_fleet_report(fleet)
        assert "leases:" not in report
        assert "shared store:" not in report

    def test_fleet_result_round_trips_aggregate_to_json(
        self, fleet_parallel
    ):
        import json

        payload = json.dumps(fleet_parallel.aggregate())
        assert json.loads(payload)["switches"] == FABRIC_SIZE


class TestFleetResultShape:
    def test_wall_clock_and_per_switch_seconds(self, fleet_parallel):
        assert fleet_parallel.wall_seconds > 0
        assert all(s.seconds > 0 for s in fleet_parallel.switches)

    def test_is_fleet_result(self, fleet_parallel):
        assert isinstance(fleet_parallel, FleetResult)
        assert fleet_parallel.workers == 3
        assert fleet_parallel.store_root is not None


def _marking_task(marks, run, session, fails="run00", hold=0.5):
    """Fan-out task: the run named ``fails`` fails at once; every other
    one leaves a mark, then holds its worker for ``hold`` seconds, long
    enough for the failure to reach the coordinator."""
    if run.name == fails:
        raise RuntimeError(f"{fails} failed")
    (marks / run.name).touch()
    time.sleep(hold)


def _named_runs(fabric, copies):
    runs = [copy.copy(run) for run in fabric * copies]
    for index, run in enumerate(runs):
        run.name = f"run{index:02d}"
    return runs


class TestFanOutFailure:
    """``run_many`` (so both ``fleet`` and ``explore``): a failing task
    surfaces without the still-queued runs being executed first."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_first_failure_cancels_queued_runs(
        self, fabric, tmp_path, workers
    ):
        runs = _named_runs(fabric, 3)
        with pytest.raises(RuntimeError, match="run00 failed"):
            run_many(
                runs,
                functools.partial(_marking_task, tmp_path),
                workers=workers,
                store=False,
            )
        ran = sorted(mark.name for mark in tmp_path.iterdir())
        # Only runs already handed to a worker when the failure
        # surfaced (pool size + the pool's short prefetch queue) may
        # have run; the tail of the fabric was cancelled.
        assert not set(ran) & {run.name for run in runs[9:]}, ran

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failure_mid_block_skips_its_block_and_cancels_the_queue(
        self, fabric, tmp_path, workers
    ):
        """Blocks of three: the second run of the first block raises,
        so the third never runs, and the blocks still queued are
        cancelled."""
        runs = _named_runs(fabric, 4)
        with pytest.raises(RuntimeError, match="run01 failed"):
            run_many(
                runs,
                functools.partial(
                    _marking_task, tmp_path, fails="run01", hold=0.3
                ),
                workers=workers,
                store=False,
                key=lambda run: int(run.name[3:]) // 3,
            )
        ran = sorted(mark.name for mark in tmp_path.iterdir())
        assert "run00" in ran and "run02" not in ran, ran
        if workers == 1:
            assert ran == ["run00"]
        # Only blocks already handed to a worker when the failure
        # surfaced (pool size + the pool's short prefetch queue) may
        # have run; the last two of the eight blocks were cancelled.
        assert not set(ran) & {run.name for run in runs[18:]}, ran
