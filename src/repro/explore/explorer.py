"""The design-space explorer: every point through the full pipeline.

:class:`Explorer.run` fans a :class:`~repro.explore.space.DesignSpace`'s
points out through the fleet's run machinery — each point is one
:class:`~repro.core.pipeline.SwitchRun`, exactly like a fleet switch,
handed to :func:`~repro.core.fanout.run_many` against
**one shared persistent store**, so probes that overlap across design
points are paid for once.  The big
overlap is profiling: profile entries are keyed by (program, config,
trace) with *no target in the key*, so every shape of a program answers
its profiling probes from the first shape's replays; compile entries are
keyed by the target's content fingerprint and are shared between points
that differ only in phase order or policy.

Determinism contract (the fleet coordinator's, inherited):

* Results merge in **submission order** (the space's enumeration
  order), so the outcome list — and the canonical JSON
  (:meth:`ExploreResult.as_dict`) — is byte-identical for any worker
  count.  Per-point metrics and probe *calls* are deterministic
  outright; aggregate execution/disk-hit splits are deterministic on a
  fresh store because the lease protocol executes every distinct probe
  exactly once sweep-wide.  What is *not* deterministic — per-point
  provenance (who paid for a shared probe), timings, lease contention —
  stays off the canonical dict and appears only in the human report.
* A point whose program cannot be allocated on its shape at all (an
  unsplittable register array larger than a stage — AllocationError)
  is recorded as ``status="infeasible"`` with the reason; the sweep
  continues.  Shapes the program compiles onto but spills past
  (virtual stages, §2.2) are feasible points with ``fits=False`` —
  they carry metrics and feed the fit breakpoints, but only fitting
  points enter the Pareto frontier.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.fanout import probe_provenance, run_many
from repro.core.fleet import family_inputs
from repro.core.pipeline import P2GOResult, SwitchRun
from repro.core.session import OptimizationContext, SessionCounters
from repro.core.store import SessionStore
from repro.exceptions import ReproError
from repro.explore.frontier import fit_breakpoints, pareto_front
from repro.explore.space import DesignPoint, DesignSpace
from repro.sim.switch import ReplayTrace

__all__ = [
    "Explorer",
    "ExploreResult",
    "PointOutcome",
    "profile_coverage",
]


def profile_coverage(result: P2GOResult) -> float:
    """Apply-rate-weighted fraction of the original program's tables
    still executed on-switch after optimization.  1.0 until phase 4
    moves a segment to the controller (dependency removal and memory
    reduction keep every table; offloading replaces the segment's
    tables with a redirect) — the "how much of the profiled behaviour
    still runs at line rate" Pareto objective."""
    profile = result.initial_profile
    original = result.original_program.tables_in_control_order()
    surviving = set(result.optimized_program.tables_in_control_order())
    total = sum(profile.apply_rate(table) for table in original)
    if total == 0:
        return 1.0
    kept = sum(
        profile.apply_rate(table)
        for table in original
        if table in surviving
    )
    return kept / total


@dataclass
class PointOutcome:
    """One design point's outcome.

    ``metrics`` (feasible points only) holds the Pareto objectives plus
    ``fits``; ``counters``/``store_stats``/``seconds`` are provenance
    and timing — deliberately absent from :meth:`as_dict`, which is the
    worker-count-independent canonical form (per-point *calls* are
    deterministic; who executed vs. disk-hit a shared probe is not).
    """

    point: DesignPoint
    status: str  # "ok" | "infeasible"
    reason: Optional[str]
    metrics: Dict
    counters: Optional[SessionCounters]
    store_stats: Optional[dict]
    seconds: float

    @property
    def feasible(self) -> bool:
        return self.status == "ok"

    @property
    def fits(self) -> bool:
        return bool(self.metrics.get("fits", False))

    def as_dict(self) -> Dict:
        payload: Dict = {
            "point": self.point.point_id,
            "program": self.point.program,
            "shape": [
                self.point.shape.num_stages,
                self.point.shape.sram_blocks,
                self.point.shape.tcam_blocks,
            ],
            "order": list(self.point.order),
            "policy": self.point.policy,
            "status": self.status,
        }
        if self.reason is not None:
            payload["reason"] = self.reason
        if self.metrics:
            payload["metrics"] = {
                key: (
                    round(value, 6) if isinstance(value, float) else value
                )
                for key, value in sorted(self.metrics.items())
            }
        if self.counters is not None:
            payload["probes"] = {
                "compile_calls": self.counters.compile_calls,
                "profile_calls": self.counters.profile_calls,
            }
        return payload


def _point_task(
    run: SwitchRun, session: OptimizationContext
) -> Tuple[str, Optional[str], Dict, SessionCounters, Optional[dict]]:
    """One design point end to end (runs inside a pool worker):
    execute, score.  Returns :class:`PointOutcome`'s fields between
    ``point`` and ``seconds``.  A :class:`~repro.exceptions.ReproError`
    (the program cannot exist on this shape) becomes an infeasible
    outcome; the raising probe released its own lease, and the fan-out
    closes the session either way.  Feasible or not, the point records
    its store handle's settings and counters, never a census."""
    status, reason, metrics = "ok", None, {}
    store_stats = None
    try:
        result = run.execute(session=session)
        store_stats = result.store_stats
        metrics = {
            "stages_before": result.stages_before,
            "stages_used": result.stages_after,
            "controller_load": float(result.controller_load),
            "profile_coverage": profile_coverage(result),
            "compile_count": session.counters.compile_calls,
            "offloaded_tables": len(result.offloaded_tables),
            "fits": result.stages_after <= run.target.num_stages,
        }
    except ReproError as exc:
        status = "infeasible"
        reason = f"{type(exc).__name__}: {exc}"
        if session.store is not None:
            store_stats = session.store.handle_stats()
    return status, reason, metrics, session.counters, store_stats


@dataclass
class ExploreResult:
    """Everything one sweep produces, in submission order."""

    outcomes: List[PointOutcome]
    space: DesignSpace
    sample: Optional[int]
    seed: int
    workers: int
    store_root: Optional[str]
    wall_seconds: float
    _aggregate: Optional[Dict] = field(default=None, repr=False)

    # ------------------------------------------------------------------
    def frontier(self) -> Dict[str, List[PointOutcome]]:
        """Per-program Pareto frontier over the feasible, fitting
        points (input order preserved; equal-vector ties all kept)."""
        frontier: Dict[str, List[PointOutcome]] = {}
        for program in self.space.programs:
            candidates = [
                outcome
                for outcome in self.outcomes
                if outcome.point.program == program
                and outcome.feasible
                and outcome.fits
            ]
            frontier[program] = pareto_front(
                candidates, key=lambda outcome: outcome.metrics
            )
        return frontier

    def breakpoints(self) -> Dict[str, Dict]:
        """Per-program smallest-shape-that-still-fits (infeasible
        points count as not fitting their shape)."""
        records = [
            {
                "program": outcome.point.program,
                "shape": (
                    outcome.point.shape.num_stages,
                    outcome.point.shape.sram_blocks,
                    outcome.point.shape.tcam_blocks,
                ),
                "fits": outcome.feasible and outcome.fits,
            }
            for outcome in self.outcomes
        ]
        return fit_breakpoints(records)

    def aggregate(self) -> Dict:
        """Sweep-wide counts: point census, probe provenance, the
        cross-point reuse rate the shared store bought."""
        if self._aggregate is not None:
            return self._aggregate
        provenance = probe_provenance(
            outcome.counters for outcome in self.outcomes
        )
        provenance["disk_reuse_rate"] = round(
            provenance["disk_reuse_rate"], 4
        )
        frontier = self.frontier()
        self._aggregate = {
            "points": len(self.outcomes),
            "feasible": sum(1 for o in self.outcomes if o.feasible),
            "infeasible": sum(
                1 for o in self.outcomes if not o.feasible
            ),
            "fitting": sum(
                1 for o in self.outcomes if o.feasible and o.fits
            ),
            "frontier_points": sum(
                len(front) for front in frontier.values()
            ),
            **provenance,
        }
        return self._aggregate

    def as_dict(self) -> Dict:
        """The canonical JSON form: everything deterministic for a
        given ``(space, sample, seed)`` and a fresh store — worker
        count, store location, timings, and lease contention are
        deliberately excluded (``p2go explore --workers 1`` and
        ``--workers 4`` must serialize byte-identically;
        ``tests/test_explore.py`` pins that)."""
        space = self.space.describe()
        space["points_run"] = len(self.outcomes)
        space["sample"] = self.sample
        space["seed"] = self.seed
        return {
            "space": space,
            "points": [outcome.as_dict() for outcome in self.outcomes],
            "frontier": {
                program: [outcome.point.point_id for outcome in front]
                for program, front in self.frontier().items()
            },
            "breakpoints": self.breakpoints(),
            "aggregate": self.aggregate(),
        }


class Explorer:
    """Run a design space through the pipeline on a process pool.

    ``packets``/``trace_seed`` feed each program family's traffic
    generator **once per program** — every shape/order/policy of a
    program sees the same trace, which is what makes its profiling
    probes shape-independent and reusable.  ``sample``/``seed`` thin
    large grids deterministically (:meth:`DesignSpace.sample`).
    ``store`` follows :func:`~repro.core.store.resolve_store` semantics
    (instance / path / None → ``$P2GO_STORE`` / False → off); without
    one, points still run — there is just no cross-point reuse.
    ``workers`` sizes the coordinator pool (None → ``$P2GO_WORKERS``,
    then 1): parallelism lives at shape granularity, one block of
    consecutive same-shape points per pool task (:meth:`run`).
    """

    def __init__(
        self,
        space: DesignSpace,
        packets: Optional[int] = None,
        trace_seed: int = 0,
        sample: Optional[int] = None,
        seed: int = 0,
        workers: Optional[int] = None,
        store: Union[SessionStore, str, bool, None] = None,
    ):
        self.space = space
        self.packets = packets
        self.trace_seed = trace_seed
        self.sample = sample
        self.seed = seed
        self.workers = workers
        self.store = store

    def points(self) -> List[DesignPoint]:
        if self.sample is not None:
            return self.space.sample(self.sample, self.seed)
        return self.space.points()

    def runs_for(self, points: Sequence[DesignPoint]) -> List[SwitchRun]:
        """One :class:`~repro.core.pipeline.SwitchRun` per point, in
        order: the point's program family on its shape, with the
        point's phase order and candidate policy.  Family inputs are
        loaded once per program (one trace per program — see the class
        docstring), and the runs of a program share one
        :class:`~repro.sim.switch.ReplayTrace`, so it is hashed once."""
        inputs = {}
        for name in self.space.programs:
            program, config, trace, target = family_inputs(
                name, packets=self.packets, trace_seed=self.trace_seed
            )
            inputs[name] = (program, config, ReplayTrace(trace), target)
        runs = []
        for point in points:
            program, config, trace, base_target = inputs[point.program]
            runs.append(
                SwitchRun(
                    program,
                    config,
                    trace,
                    point.shape.apply(base_target),
                    name=point.point_id,
                    phases=point.order,
                    candidate_policy=point.policy,
                )
            )
        return runs

    def run(self) -> ExploreResult:
        """Execute the sweep; outcomes merge in submission order.

        Consecutive points of one program on one shape ask the same
        compile keys (the target's fingerprint is in every one), so
        they form one fan-out block: one worker runs them back to back
        instead of two racing each other for the same leases."""
        points = self.points()
        runs = self.runs_for(points)
        shape_of = {
            id(run): (point.program, point.shape)
            for point, run in zip(points, runs)
        }
        fan = run_many(
            runs,
            _point_task,
            workers=self.workers,
            store=self.store,
            key=lambda run: shape_of[id(run)],
        )
        return ExploreResult(
            outcomes=[
                PointOutcome(point, *fields, seconds)
                for point, (fields, seconds) in zip(points, fan.results)
            ],
            space=self.space,
            sample=self.sample,
            seed=self.seed,
            workers=fan.workers,
            store_root=fan.store_root,
            wall_seconds=fan.wall_seconds,
        )
