"""Fleet coordinator: the paper's network-wide "one big switch" (§6).

P2GO optimizes one switch at a time; a datacenter fabric runs dozens of
pipeline variants that share most of their programs.  The coordinator
drives N per-switch :class:`~repro.core.pipeline.SwitchRun` units —
variants of the evaluation programs with per-switch traffic — through
:func:`~repro.core.fanout.run_many` (a process pool) against **one
shared persistent store**
(:class:`~repro.core.store.SessionStore`), so a probe any switch has
paid for answers every other switch's identical probe from disk, and
the store's probe leases dedupe probes that are *in flight* in two
processes at once.

Contract:

* **Determinism.**  Each switch's result is canonically identical to a
  standalone ``P2GO.run()`` over the same inputs, for any coordinator
  worker count, with or without the shared store — sharing changes who
  pays for a probe (``session_counters`` provenance), never the
  optimization outcome.  Results merge in submission order.
* **Exactly-once probing.**  With a shared store, two processes never
  both execute the same fingerprinted probe (one claims, the other waits
  and gets a disk hit), so the fleet-wide execution count equals the
  number of *distinct* probes the fabric asks — the number
  ``BENCH_stack.json`` pins for ``fleet_shared``.  The only exception
  is a reaped lease (its holder died mid-probe), where re-execution is
  the correct degradation.

Fleet parallelism is at switch granularity: every child process is a
pure function of its run.  The fleet hands
:func:`~repro.core.fanout.run_many` no ``key``: a fabric cycles through
its families, so adjacent switches share no compile key and there is no
block worth keeping in one worker.

``tests/test_fleet.py`` pins the contract; the stack benchmark's
``fleet_shared`` workload measures it and re-checks equivalence with
standalone runs on every operation.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.fanout import lease_contention, probe_provenance, run_many
from repro.core.pipeline import P2GOResult, SwitchRun
from repro.core.session import (
    OptimizationContext,
    config_fingerprint,
    program_fingerprint,
)
from repro.core.store import SessionStore
from repro.p4.program import Program
from repro.sim.runtime import RuntimeConfig
from repro.target.model import TargetModel
from repro.traffic.generators import TracePacket

__all__ = [
    "DEFAULT_FAMILIES",
    "FleetResult",
    "FleetSwitch",
    "build_fabric",
    "family_inputs",
    "run_fleet",
    "switch_fingerprint",
]

#: Program families a default fabric cycles through — the §4 evaluation
#: scenarios the ROADMAP names for the fleet story.
DEFAULT_FAMILIES = ("enterprise", "nat_gre", "sourceguard", "cgnat")


def family_inputs(
    family: str,
    packets: Optional[int] = None,
    trace_seed: Optional[int] = 0,
) -> Tuple[Program, RuntimeConfig, List[TracePacket], TargetModel]:
    """Concrete pipeline inputs for one evaluation-program family:
    ``(program, config, trace, target)``.  ``packets`` overrides the
    family's default trace length; ``trace_seed`` feeds its traffic
    generator (``None``: the family's own default seed, what ``p2go
    demo`` runs).  Shared by the fleet builder, the design-space
    explorer and the demo so all three read one program corpus."""
    module = importlib.import_module(f"repro.programs.{family}")
    size = () if packets is None else (packets,)
    seed = {} if trace_seed is None else {"seed": trace_seed}
    return (
        module.build_program(),
        module.runtime_config(),
        module.make_trace(*size, **seed),
        module.TARGET,
    )


def build_fabric(
    size: int,
    families: Sequence[str] = DEFAULT_FAMILIES,
    seed: int = 0,
    packets: Optional[int] = None,
) -> List[SwitchRun]:
    """A fabric of ``size`` switches cycling through ``families``, each
    a self-contained :class:`~repro.core.pipeline.SwitchRun` (fleet
    parallelism is at switch granularity).

    Switch ``i`` runs family ``families[i % len(families)]`` with a
    per-switch trace (``seed + i`` feeds the family's traffic
    generator), modelling a datacenter row: many instances of few
    pipeline programs, each seeing its own traffic.  Same-family
    switches therefore share compile fingerprints (the cross-switch
    reuse the shared store harvests) while their profiles stay
    per-switch.  ``packets`` overrides each family's default trace
    length (smaller = faster fabrics for tests and CI).
    """
    if size < 1:
        raise ValueError("fabric size must be >= 1")
    if not families:
        raise ValueError("need at least one program family")
    runs = []
    for index in range(size):
        family = families[index % len(families)]
        runs.append(
            SwitchRun(
                *family_inputs(family, packets, seed + index),
                name=f"sw{index:02d}-{family}",
            )
        )
    return runs


@dataclass
class FleetSwitch:
    """One switch's outcome within a fleet run."""

    name: str
    result: P2GOResult
    seconds: float


@dataclass
class FleetResult:
    """Everything one fleet run produces, in submission order."""

    switches: List[FleetSwitch]
    wall_seconds: float
    workers: int
    store_root: Optional[str]
    #: Aggregate cache (computed once by :meth:`aggregate`).
    _aggregate: Optional[Dict] = field(default=None, repr=False)

    def aggregate(self) -> Dict:
        """Fleet-wide totals: stages reclaimed, probe provenance,
        cross-switch disk reuse, lease contention, wall clock."""
        if self._aggregate is not None:
            return self._aggregate
        stages_before = sum(s.result.stages_before for s in self.switches)
        stages_after = sum(s.result.stages_after for s in self.switches)
        self._aggregate = {
            "switches": len(self.switches),
            "workers": self.workers,
            "store_root": self.store_root,
            "stages_before": stages_before,
            "stages_after": stages_after,
            "stages_reclaimed": stages_before - stages_after,
            **probe_provenance(
                switch.result.session_counters for switch in self.switches
            ),
            "switch_seconds": round(
                sum(switch.seconds for switch in self.switches), 3
            ),
            "wall_seconds": round(self.wall_seconds, 3),
            **lease_contention(s.result.store_stats for s in self.switches),
        }
        return self._aggregate

    def as_dict(self) -> Dict:
        """The ``fleet --json`` payload: the aggregate, then each
        switch's name, wall seconds and stage counts in submission
        order."""
        return {
            "aggregate": self.aggregate(),
            "switches": [
                {
                    "name": switch.name,
                    "seconds": round(switch.seconds, 3),
                    "stages_before": switch.result.stages_before,
                    "stages_after": switch.result.stages_after,
                }
                for switch in self.switches
            ],
        }


def switch_fingerprint(result: P2GOResult) -> Tuple:
    """Canonical identity of one switch's optimization outcome — what
    "bit-identical to a standalone run" compares (provenance counters
    deliberately excluded: sharing changes who pays, not the answer)."""
    return (
        program_fingerprint(result.optimized_program),
        config_fingerprint(result.final_config),
        tuple(result.stage_history()),
        result.offloaded_tables,
    )


def _fleet_task(run: SwitchRun, session: OptimizationContext) -> P2GOResult:
    """One switch end to end (runs inside a pool worker)."""
    return run.execute(session=session)


def run_fleet(
    runs: Sequence[SwitchRun],
    store: Union[SessionStore, str, bool, None] = None,
    workers: Optional[int] = None,
) -> FleetResult:
    """Optimize a fabric of switches against one shared store.

    ``runs`` go through :func:`~repro.core.fanout.run_many`: a process
    pool of ``workers`` (None defers to ``$P2GO_WORKERS``, then 1 — the
    serial path), results merged in **submission order**, so the
    returned per-switch results are independent of the worker count.

    ``store`` follows :func:`~repro.core.store.resolve_store` semantics
    (instance / path / ``None`` → ``$P2GO_STORE`` / ``False`` → off);
    every worker process opens its own handle on the same root, and
    store-level leases dedupe the probes in flight across them.
    """
    runs = list(runs)
    fan = run_many(runs, _fleet_task, workers=workers, store=store)
    return FleetResult(
        switches=[
            FleetSwitch(name=run.name, result=result, seconds=seconds)
            for run, (result, seconds) in zip(runs, fan.results)
        ],
        wall_seconds=fan.wall_seconds,
        workers=fan.workers,
        store_root=fan.store_root,
    )
