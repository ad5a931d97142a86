"""Design-space exploration (ISSUE 10).

Pins the explorer contract of :mod:`repro.explore`: Pareto extraction
identical to a brute-force dominance recount (property-tested), sweep
outcomes byte-identical for any worker count, a warm second sweep over
the same store executing nothing, shape/target validation failing
loudly, and infeasible shapes recorded — not raised — so a sweep
survives grids the program cannot exist on.
"""

import itertools
import json
import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.pipeline import P2GO, SwitchRun
from repro.core.report import render_explore_report, render_report
from repro.core.store import SessionStore
from repro.exceptions import CompilationError
from repro.explore import (
    DesignPoint,
    DesignSpace,
    Explorer,
    TargetShape,
    dominates,
    fit_breakpoints,
    objective_vector,
    pareto_front,
    parse_grid,
    seed_space,
)
from repro.programs.common import EXAMPLE_TARGET
from repro.target.model import TargetModel

#: Small sweep: 3 stage shapes x 2 orders x 2 policies = 12 points.
GRID = "stages=3,6,12"
PACKETS = 400


@pytest.fixture(scope="module")
def small_space():
    return DesignSpace(
        programs=("example_firewall",),
        shapes=parse_grid(GRID, EXAMPLE_TARGET),
    )


@pytest.fixture(scope="module")
def store_root(tmp_path_factory):
    return str(tmp_path_factory.mktemp("explore") / "store")


@pytest.fixture(scope="module")
def sweep(small_space, store_root):
    """One cold serial sweep over a shared store (module-scoped:
    read-only for every test; the warm-sweep test reuses its store)."""
    return Explorer(
        small_space, packets=PACKETS, workers=1, store=store_root
    ).run()


# ----------------------------------------------------------------------
# Shapes and spaces


class TestTargetShape:
    def test_apply_inherits_base_constants(self):
        shape = TargetShape(num_stages=6, sram_blocks=4, tcam_blocks=2)
        target = shape.apply(EXAMPLE_TARGET)
        assert target.num_stages == 6
        assert target.sram_blocks_per_stage == 4
        assert target.tcam_blocks_per_stage == 2
        assert target.sram_block_bytes == EXAMPLE_TARGET.sram_block_bytes
        assert target.tcam_block_bytes == EXAMPLE_TARGET.tcam_block_bytes
        assert (
            target.max_tables_per_stage
            == EXAMPLE_TARGET.max_tables_per_stage
        )
        assert "6x4x2" in target.name

    def test_boundary_shape_is_valid(self):
        shape = TargetShape(num_stages=1, sram_blocks=1, tcam_blocks=1)
        assert shape.apply(EXAMPLE_TARGET).num_stages == 1

    @pytest.mark.parametrize("stages", [0, -1, -12])
    def test_rejects_non_positive_stages(self, stages):
        with pytest.raises(ValueError, match="num_stages"):
            TargetShape(num_stages=stages, sram_blocks=8, tcam_blocks=4)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_stages": 4, "sram_blocks": 0, "tcam_blocks": 4},
            {"num_stages": 4, "sram_blocks": 8, "tcam_blocks": -2},
        ],
    )
    def test_rejects_non_positive_blocks(self, kwargs):
        with pytest.raises(ValueError, match="must be positive"):
            TargetShape(**kwargs)

    @pytest.mark.parametrize("bad", [True, 2.5, "4", None])
    def test_rejects_non_integer_axes(self, bad):
        with pytest.raises(ValueError, match="must be an integer"):
            TargetShape(num_stages=bad, sram_blocks=8, tcam_blocks=4)

    def test_of_roundtrips_a_target(self):
        shape = TargetShape.of(EXAMPLE_TARGET)
        assert shape.num_stages == EXAMPLE_TARGET.num_stages
        assert shape.sram_blocks == EXAMPLE_TARGET.sram_blocks_per_stage


class TestTargetModelValidation:
    """Satellite 3: nonsensical pipeline shapes fail loudly at target
    construction, with the offending parameter named."""

    def test_one_stage_target_is_valid(self):
        assert TargetModel(num_stages=1).num_stages == 1

    @pytest.mark.parametrize(
        "field",
        [
            "num_stages",
            "sram_blocks_per_stage",
            "tcam_blocks_per_stage",
            "sram_block_bytes",
            "tcam_block_bytes",
            "max_tables_per_stage",
        ],
    )
    @pytest.mark.parametrize("value", [0, -1])
    def test_rejects_non_positive(self, field, value):
        with pytest.raises(CompilationError, match=field):
            TargetModel(**{field: value})

    @pytest.mark.parametrize("value", [True, 1.5, "12"])
    def test_rejects_non_integer_stages(self, value):
        with pytest.raises(CompilationError, match="num_stages"):
            TargetModel(num_stages=value)

    def test_rejects_empty_name(self):
        with pytest.raises(CompilationError, match="name"):
            TargetModel(name="")

    def test_fingerprint_separates_same_named_shapes(self):
        a = TargetModel(name="t", num_stages=4)
        b = TargetModel(name="t", num_stages=8)
        assert a.fingerprint() != b.fingerprint()
        assert a.fingerprint() == TargetModel(name="t", num_stages=4).fingerprint()


class TestParseGrid:
    def test_product_nests_stages_sram_tcam(self):
        shapes = parse_grid("stages=3,6;sram=8,16", EXAMPLE_TARGET)
        assert [s.shape_id for s in shapes] == [
            "3x8x8", "3x16x8", "6x8x8", "6x16x8",
        ]

    def test_missing_axes_stay_at_base(self):
        (shape,) = parse_grid("tcam=4", EXAMPLE_TARGET)
        assert shape.num_stages == EXAMPLE_TARGET.num_stages
        assert shape.sram_blocks == EXAMPLE_TARGET.sram_blocks_per_stage
        assert shape.tcam_blocks == 4

    def test_rejects_unknown_axis(self):
        with pytest.raises(ValueError, match="bad grid clause"):
            parse_grid("stages=4;phv=8", EXAMPLE_TARGET)

    def test_rejects_non_integer_values(self):
        with pytest.raises(ValueError, match="comma-separated integers"):
            parse_grid("stages=4,lots", EXAMPLE_TARGET)

    def test_rejects_empty_axis(self):
        with pytest.raises(ValueError, match="no values"):
            parse_grid("stages=", EXAMPLE_TARGET)

    def test_rejects_non_positive_values(self):
        with pytest.raises(ValueError, match="must be positive"):
            parse_grid("stages=0", EXAMPLE_TARGET)


class TestDesignSpace:
    def test_points_enumerate_in_axis_order(self, small_space):
        points = small_space.points()
        assert len(points) == small_space.size == 12
        expected = [
            DesignPoint(program=p, shape=s, order=o, policy=c)
            for p in small_space.programs
            for s in small_space.shapes
            for o in small_space.orders
            for c in small_space.policies
        ]
        assert points == expected

    def test_sample_is_seeded_and_order_preserving(self, small_space):
        first = small_space.sample(5, seed=7)
        second = small_space.sample(5, seed=7)
        assert first == second
        assert len(first) == 5
        enumeration = small_space.points()
        indices = [enumeration.index(point) for point in first]
        assert indices == sorted(indices)
        assert small_space.sample(5, seed=8) != first

    def test_sample_larger_than_space_returns_all(self, small_space):
        assert small_space.sample(999) == small_space.points()

    def test_sample_rejects_non_positive(self, small_space):
        with pytest.raises(ValueError, match="sample size"):
            small_space.sample(0)

    def test_rejects_empty_axes(self):
        with pytest.raises(ValueError, match="at least one"):
            DesignSpace(programs=(), shapes=(TargetShape(4, 8, 4),))

    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError, match="unknown candidate policy"):
            DesignSpace(
                programs=("example_firewall",),
                shapes=(TargetShape(4, 8, 4),),
                policies=("best-first",),
            )

    def test_rejects_the_retired_largest_memory_first_policy(self):
        with pytest.raises(
            ValueError,
            match="known policies: highest-hit-rate, lowest-hit-rate$",
        ):
            DesignSpace(
                programs=("example_firewall",),
                shapes=(TargetShape(4, 8, 4),),
                policies=("largest-memory-first",),
            )

    def test_rejects_unknown_phase(self):
        with pytest.raises(ValueError, match="unknown phases"):
            DesignSpace(
                programs=("example_firewall",),
                shapes=(TargetShape(4, 8, 4),),
                orders=((2, 5),),
            )

    def test_seed_space_covers_the_ablation_axes(self):
        space = seed_space()
        assert (2, 3, 4) in space.orders and (4, 2, 3) in space.orders
        assert "lowest-hit-rate" in space.policies
        assert "highest-hit-rate" in space.policies
        assert space.size == len(space.points())


# ----------------------------------------------------------------------
# Frontier extraction (satellite 1: brute-force equivalence)


def brute_force_front(items):
    """The O(n²) dominance recount the fast extraction must equal."""
    vectors = [objective_vector(m) for m in items]
    return [
        items[i]
        for i, vi in enumerate(vectors)
        if not any(
            dominates(vj, vi)
            for j, vj in enumerate(vectors)
            if j != i
        )
    ]


METRICS = st.fixed_dictionaries(
    {
        "stages_used": st.integers(min_value=1, max_value=12),
        "controller_load": st.floats(
            min_value=0.0, max_value=1.0, allow_nan=False
        ),
        "profile_coverage": st.floats(
            min_value=0.0, max_value=1.0, allow_nan=False
        ),
        "compile_count": st.integers(min_value=0, max_value=200),
    }
)


class TestParetoFront:
    @given(st.lists(METRICS, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force_recount(self, items):
        assert pareto_front(items) == brute_force_front(items)

    @given(st.lists(METRICS, min_size=1, max_size=25))
    @settings(max_examples=100, deadline=None)
    def test_no_survivor_is_dominated_and_every_survivor_is_nondominated(
        self, items
    ):
        front = pareto_front(items)
        vectors = [objective_vector(m) for m in items]
        front_vectors = [objective_vector(m) for m in front]
        for fv in front_vectors:
            assert not any(dominates(v, fv) for v in vectors)
        for i, vi in enumerate(vectors):
            if not any(
                dominates(vj, vi)
                for j, vj in enumerate(vectors)
                if j != i
            ):
                assert items[i] in front

    def test_equal_vectors_tie_and_both_survive_in_input_order(self):
        a = {
            "stages_used": 3,
            "controller_load": 0.1,
            "profile_coverage": 0.9,
            "compile_count": 10,
        }
        b = dict(a)
        worse = dict(a, stages_used=5, compile_count=20)
        assert pareto_front([a, worse, b]) == [a, b]

    def test_preserves_input_order(self):
        best_stages = {
            "stages_used": 1,
            "controller_load": 0.5,
            "profile_coverage": 1.0,
            "compile_count": 50,
        }
        best_load = dict(
            best_stages, stages_used=9, controller_load=0.0
        )
        assert pareto_front([best_load, best_stages]) == [
            best_load,
            best_stages,
        ]

    def test_single_point_is_the_frontier(self):
        point = {
            "stages_used": 4,
            "controller_load": 0.0,
            "profile_coverage": 1.0,
            "compile_count": 1,
        }
        assert pareto_front([point]) == [point]
        assert pareto_front([]) == []

    def test_dominates_is_strict(self):
        assert dominates((1, 1), (1, 2))
        assert not dominates((1, 2), (1, 2))
        assert not dominates((1, 2), (2, 1))
        with pytest.raises(ValueError, match="share a length"):
            dominates((1,), (1, 2))

    def test_objective_vector_negates_max_axes(self):
        metrics = {
            "stages_used": 4,
            "controller_load": 0.25,
            "profile_coverage": 0.75,
            "compile_count": 9,
        }
        assert objective_vector(metrics) == (4.0, 0.25, -0.75, 9.0)
        with pytest.raises(ValueError, match="unknown sense"):
            objective_vector(metrics, (("stages_used", "minimize"),))


class TestFitBreakpoints:
    def test_smallest_fitting_shape_per_program(self):
        records = [
            {"program": "a", "shape": (3, 8, 4), "fits": False},
            {"program": "a", "shape": (6, 8, 4), "fits": True},
            {"program": "a", "shape": (12, 16, 8), "fits": True},
            {"program": "b", "shape": (3, 8, 4), "fits": False},
        ]
        breakpoints = fit_breakpoints(records)
        assert breakpoints["a"]["smallest_fit"] == [6, 8, 4]
        assert breakpoints["a"]["shapes_fit"] == 2
        assert breakpoints["a"]["shapes_swept"] == 3
        assert breakpoints["b"]["smallest_fit"] is None

    def test_any_point_on_a_shape_rescues_it(self):
        records = [
            {"program": "a", "shape": (6, 8, 4), "fits": False},
            {"program": "a", "shape": (6, 8, 4), "fits": True},
        ]
        assert fit_breakpoints(records)["a"]["smallest_fit"] == [6, 8, 4]


# ----------------------------------------------------------------------
# The sweep itself


class TestSweep:
    def test_frontier_points_are_feasible_and_fit(self, sweep):
        frontier = sweep.frontier()
        assert any(front for front in frontier.values())
        for front in frontier.values():
            for outcome in front:
                assert outcome.feasible and outcome.fits

    def test_cold_sweep_reuses_probes_across_points(self, sweep):
        aggregate = sweep.aggregate()
        assert aggregate["probe_disk_hits"] > 0
        assert 0.0 < aggregate["disk_reuse_rate"] < 1.0
        assert (
            aggregate["probe_executions"] + aggregate["probe_disk_hits"]
            <= aggregate["probe_calls"]
        )

    def test_breakpoints_find_the_smallest_fitting_shape(self, sweep):
        info = sweep.breakpoints()["example_firewall"]
        assert info["smallest_fit"] is not None
        assert info["shapes_swept"] == 3
        # The example program spills past 3 stages before optimization,
        # so the smallest swept shape must not be the 3-stage one.
        assert info["smallest_fit"][0] > 3

    def test_metrics_carry_every_pareto_objective(self, sweep):
        for outcome in sweep.outcomes:
            assert outcome.feasible, outcome.reason
            for key in (
                "stages_used",
                "controller_load",
                "profile_coverage",
                "compile_count",
                "fits",
            ):
                assert key in outcome.metrics
            assert 0.0 <= outcome.metrics["profile_coverage"] <= 1.0
            assert outcome.metrics["compile_count"] > 0

    def test_canonical_dict_excludes_scheduling_facts(self, sweep):
        payload = sweep.as_dict()
        serialized = json.dumps(payload)
        assert "workers" not in payload
        assert "seconds" not in serialized
        assert "store_root" not in serialized
        assert payload["space"]["points_run"] == len(sweep.outcomes)
        assert set(payload["frontier"]) == {"example_firewall"}

    def test_report_renders(self, sweep):
        report = render_explore_report(sweep)
        assert "example_firewall" in report
        assert "cross-point reuse" in report
        assert "smallest fitting shape" in report
        claims = sum(
            outcome.store_stats["counters"]["lease_claims"]
            for outcome in sweep.outcomes
        )
        assert claims > 0
        # Serial: nobody else held a lease, so nothing waited.
        assert (
            f"leases: {claims} claimed, 0 contended waits, "
            "0 resolved as disk hits, 0 stale leases reaped"
        ) in report
        assert "lease" not in json.dumps(sweep.as_dict())

    def test_a_keyed_sweep_decides_what_a_storeless_one_does(
        self, small_space, tmp_path, monkeypatch
    ):
        """The points of a shape's block share what their store handles
        read and write, so fewer files are read than disk hits counted;
        every outcome is still the storeless sweep's."""
        reads, read = [], SessionStore._read

        def counting_read(store, path, key):
            value = read(store, path, key)
            reads.append(value is not None)
            return value

        monkeypatch.setattr(SessionStore, "_read", counting_read)
        keyed = Explorer(
            small_space, packets=PACKETS, workers=1,
            store=str(tmp_path / "s"),
        ).run()
        hits = sum(
            outcome.store_stats["counters"][f"{kind}_hits"]
            for outcome in keyed.outcomes
            for kind in ("compile", "profile", "analysis")
        )
        assert 0 < sum(reads) < hits
        storeless = Explorer(
            small_space, packets=PACKETS, workers=1, store=False
        ).run().as_dict()
        shared = keyed.as_dict()
        storeless.pop("aggregate"), shared.pop("aggregate")
        assert shared == storeless

    def test_seed_space_runs_one_block_per_shape(self, monkeypatch):
        """The seed sweep's 40 points reach the fan-out as 10 blocks of
        4: each shape's orders and policies run in one task."""
        import repro.explore.explorer as explorer_module

        blocks = []

        class Stop(Exception):
            pass

        def spy(runs, task, workers=None, store=None, key=None):
            blocks.extend(
                [run.name for run in block]
                for _key, block in itertools.groupby(runs, key)
            )
            raise Stop

        monkeypatch.setattr(explorer_module, "run_many", spy)
        with pytest.raises(Stop):
            Explorer(
                seed_space(["example_firewall"]), packets=PACKETS
            ).run()
        assert [len(block) for block in blocks] == [4] * 10
        for block in blocks:
            shapes = {name.split("/")[1] for name in block}
            assert len(shapes) == 1, block

    def test_point_tasks_take_no_store_census(self, tmp_path, monkeypatch):
        """A point records its store handle's settings and counters;
        the census (every entry file scanned) is left to the reports
        that print it, such as ``optimize --store``'s."""
        censuses = []
        entry_files = SessionStore._entry_files

        def spy(store, kind):
            frame = sys._getframe(1)
            while frame is not None:
                if frame.f_code is SessionStore.stats.__code__:
                    censuses.append(kind)
                frame = frame.f_back
            return entry_files(store, kind)

        monkeypatch.setattr(SessionStore, "_entry_files", spy)
        space = DesignSpace(
            programs=("example_firewall",),
            shapes=parse_grid("stages=12;sram=1,48", EXAMPLE_TARGET),
        )
        result = Explorer(
            space, packets=PACKETS, workers=1, store=str(tmp_path / "s")
        ).run()
        assert {outcome.status for outcome in result.outcomes} == {
            "ok", "infeasible",
        }
        assert censuses == []
        for outcome in result.outcomes:
            assert set(outcome.store_stats) == {
                "root", "schema", "code", "max_bytes", "counters",
            }
        # A standalone run still reports the census.
        run = Explorer(space, packets=PACKETS).runs_for(
            [result.outcomes[-1].point]
        )[0]
        standalone = P2GO(
            run.program, run.config, run.trace, run.target,
            store=str(tmp_path / "s"),
        ).run()
        assert censuses
        assert re.search(
            r"^persistent store: .* analysis entries, ",
            render_report(standalone),
            re.MULTILINE,
        )

    def test_warm_second_sweep_executes_nothing(
        self, small_space, store_root, sweep
    ):
        """Satellite 2: every probe of a repeat sweep is answered by
        the store the first sweep filled."""
        warm = Explorer(
            small_space, packets=PACKETS, workers=1, store=store_root
        ).run()
        aggregate = warm.aggregate()
        assert aggregate["probe_executions"] == 0
        assert aggregate["probe_disk_hits"] > 0
        # Same metrics, frontier, and breakpoints as the cold sweep —
        # only the aggregate provenance (who paid) may differ.
        warm_payload, cold_payload = warm.as_dict(), sweep.as_dict()
        warm_payload.pop("aggregate")
        cold_payload.pop("aggregate")
        assert json.dumps(warm_payload, sort_keys=True) == json.dumps(
            cold_payload, sort_keys=True
        )

    @staticmethod
    def check_worker_counts(tmp_path, grid):
        """Same seed/grid at workers 1, 2 and 4 yields byte-identical
        canonical JSON (fresh store each, so the lease protocol's
        exactly-once execution keeps even the aggregate provenance
        deterministic)."""
        space = DesignSpace(
            programs=("example_firewall",),
            shapes=parse_grid(grid, EXAMPLE_TARGET),
        )
        serialized = []
        for workers in (1, 2, 4):
            result = Explorer(
                space,
                packets=PACKETS,
                workers=workers,
                sample=6,
                seed=3,
                store=str(tmp_path / f"store-w{workers}"),
            ).run()
            serialized.append(
                json.dumps(result.as_dict(), sort_keys=True)
            )
        assert serialized[0] == serialized[1] == serialized[2]
        # A storeless serial sweep decides the same: per-point metrics,
        # frontier and breakpoints; only who paid for a probe differs.
        storeless = Explorer(
            space, packets=PACKETS, workers=1, sample=6, seed=3,
            store=False,
        ).run().as_dict()
        shared = result.as_dict()
        storeless.pop("aggregate"), shared.pop("aggregate")
        assert storeless == shared

    def test_worker_counts_serialize_byte_identically(self, tmp_path):
        self.check_worker_counts(tmp_path, "stages=3,6")

    def test_one_shape_grid_serializes_byte_identically(self, tmp_path):
        """One shape is one fan-out block, run inline at any worker
        count."""
        self.check_worker_counts(tmp_path, "stages=6")

    def test_infeasible_shapes_are_recorded_not_raised(
        self, tmp_path, monkeypatch
    ):
        """A shape whose SRAM cannot hold the program's register array
        at all becomes an infeasible outcome, and an all-infeasible
        grid yields an empty frontier."""
        # Keep every session alive past the sweep, so the lease check
        # below sees the fan-out's close(), not a finalizer's.
        sessions = []
        create_session = SwitchRun.create_session

        def keep(run, store=None):
            sessions.append(create_session(run, store=store))
            return sessions[-1]

        monkeypatch.setattr(SwitchRun, "create_session", keep)
        space = DesignSpace(
            programs=("example_firewall",),
            shapes=parse_grid("stages=12;sram=1", EXAMPLE_TARGET),
            orders=((2, 3, 4),),
            policies=("lowest-hit-rate",),
        )
        result = Explorer(
            space, packets=PACKETS, workers=1, store=str(tmp_path / "s")
        ).run()
        (outcome,) = result.outcomes
        assert outcome.status == "infeasible"
        assert "AllocationError" in outcome.reason
        assert outcome.metrics == {}
        # The compile that raised was still an execution, not a memo hit.
        assert outcome.counters.compile_executions == 1
        assert outcome.counters.compile_hits == 0
        # The fan-out closed the point's session: the lease claimed for
        # the compile that raised was released, not left to go stale.
        assert not list((tmp_path / "s").rglob("*.lease"))
        assert result.frontier() == {"example_firewall": []}
        assert result.aggregate()["frontier_points"] == 0
        assert (
            result.breakpoints()["example_firewall"]["smallest_fit"]
            is None
        )

    def test_a_serial_sweep_hashes_its_trace_once(self, tmp_path, monkeypatch):
        """Every point of a program replays its one trace, and every
        session that adopts it — created, re-wired, and restored after
        an infeasible point — reads the fingerprint the trace carries:
        the sweep hashes the trace once, not once per session."""
        import repro.core.session as session_module
        import repro.sim.switch as switch_module

        hashed = []
        real = session_module.trace_fingerprint

        def counting(trace):
            hashed.append(len(trace))
            return real(trace)

        # Wherever the hash is computed: the session's name for it and
        # the switch module's.
        monkeypatch.setattr(session_module, "trace_fingerprint", counting)
        monkeypatch.setattr(
            switch_module, "trace_fingerprint", counting, raising=False
        )
        space = DesignSpace(
            programs=("example_firewall",),
            shapes=parse_grid("stages=12;sram=1,48", EXAMPLE_TARGET),
        )
        result = Explorer(
            space, packets=PACKETS, workers=1, store=str(tmp_path / "s")
        ).run()
        statuses = {outcome.status for outcome in result.outcomes}
        assert statuses == {"ok", "infeasible"}
        assert len(hashed) == 1
