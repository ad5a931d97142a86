"""The fuzz campaign driver: generate → check axes → shrink → record.

One :func:`run_campaign` call is one campaign: ``iterations`` seeded
cases (case ``i`` uses seed ``base_seed + i``), each run through the
requested oracle axes (behaviour, engine, store, order — see
:mod:`repro.fuzz.differential`).  Failures do not stop the
campaign — each one is (optionally) shrunk, written as a replayable
repro file, and the sweep continues, so a single run reports every
distinct disagreement it can find within its iteration/time budget.

:func:`break_optimizer` is the mutation-testing hook: wired in as the
``mutator``, it corrupts every optimized program the behaviour axis
sees, proving end to end that the harness catches a broken pass and
shrinks it to a minimal repro.
"""

from __future__ import annotations

import dataclasses
import time
from collections import Counter
from dataclasses import dataclass, field as dc_field
from pathlib import Path
from typing import Callable, List, Optional, Sequence

from repro.fuzz.differential import (
    ALL_AXES,
    AxisFailure,
    Mutator,
    run_axes,
)
from repro.fuzz.generator import GeneratedCase, generate_case
from repro.fuzz.shrinker import shrink_case, write_repro
from repro.p4.actions import Action, SetEgressPort
from repro.p4.expressions import Const
from repro.p4.program import Program

#: Name of the sabotage action :func:`break_optimizer` injects.
BROKEN_ACTION = "fuzz_broken_fwd"

#: The port the sabotage action forwards to — a value the generator
#: never emits (its ports are 0–255), so the sabotage is observable on
#: any packet whose final decision it reaches, dropped or not.
BROKEN_PORT = 499


def break_optimizer(program: Program) -> Program:
    """A deliberately broken 'pass': every table's miss now forwards to
    ``BROKEN_PORT`` instead of running the real default action.

    Used as the campaign ``mutator`` to prove the differential harness
    catches behaviour-changing optimizer output: a packet that ends on
    any table miss leaves through a port the real program never uses
    (and packets the real default would have dropped sail through).
    """
    if not program.tables:
        return program
    actions = dict(program.actions)
    actions[BROKEN_ACTION] = Action(
        name=BROKEN_ACTION,
        parameters=(),
        primitives=(SetEgressPort(Const(BROKEN_PORT)),),
    )
    tables = {
        name: dataclasses.replace(
            table,
            actions=tuple(table.actions) + (BROKEN_ACTION,),
            default_action=BROKEN_ACTION,
            default_action_args=(),
        )
        for name, table in program.tables.items()
    }
    return dataclasses.replace(program, actions=actions, tables=tables)


@dataclass
class FailureRecord:
    """One campaign finding."""

    seed: int
    failure: AxisFailure
    repro_path: Optional[Path] = None
    shrunk_tables: Optional[int] = None
    shrunk_packets: Optional[int] = None


@dataclass
class CampaignResult:
    """What one campaign did."""

    base_seed: int
    iterations: int
    axes: List[str]
    failures: List[FailureRecord] = dc_field(default_factory=list)
    elapsed_seconds: float = 0.0
    #: ``offload_checked``: offloading cases the behavior axis met (0:
    #: no offload was ever compared); ``offload_redirected``: packets
    #: their switches redirected (0: the controller never ran);
    #: ``phase N ...``: what each phase
    #: of its (2, 3, 4) runs decided
    #: (:func:`~repro.fuzz.differential.tally_decisions`).
    exercised: Counter[str] = dc_field(default_factory=Counter)

    @property
    def ok(self) -> bool:
        return not self.failures


def run_campaign(
    base_seed: int = 0,
    iterations: int = 25,
    time_budget: Optional[float] = None,
    axes: Sequence[str] = ALL_AXES,
    shrink: bool = True,
    repro_dir: Optional[Path] = None,
    trace_packets: Optional[int] = None,
    mutator: Optional[Mutator] = None,
    store_root: Optional[str] = None,
    log: Optional[Callable[[str], None]] = None,
) -> CampaignResult:
    """Run one fuzz campaign; see the module docstring.

    ``time_budget`` (seconds) stops the sweep early; the iteration in
    flight always finishes.  ``trace_packets`` overrides the generated
    trace length (smaller = faster iterations).
    """
    emit = log if log is not None else (lambda _msg: None)
    result = CampaignResult(
        base_seed=base_seed, iterations=0, axes=list(axes)
    )
    started = time.monotonic()
    for i in range(iterations):
        if (
            time_budget is not None
            and time.monotonic() - started >= time_budget
        ):
            emit(
                f"time budget of {time_budget:.0f}s reached after "
                f"{i} iterations"
            )
            break
        seed = base_seed + i
        case = generate_case(seed, trace_packets=trace_packets)
        failures = run_axes(
            case, axes, mutator=mutator, store_root=store_root,
            exercised=result.exercised,
        )
        result.iterations += 1
        if not failures:
            continue
        failure = failures[0]
        emit(f"seed {seed}: {failure}")
        record = FailureRecord(seed=seed, failure=failure)
        if shrink:
            case, failure = shrink_case(
                case, axes, mutator=mutator, store_root=store_root
            )
            record.failure = failure
            record.shrunk_tables = len(case.program.tables)
            record.shrunk_packets = len(case.trace)
            emit(
                f"seed {seed}: shrunk to {record.shrunk_tables} "
                f"table(s), {record.shrunk_packets} packet(s)"
            )
        if repro_dir is not None:
            record.repro_path = write_repro(
                Path(repro_dir) / f"repro-{seed}-{failure.axis}.json",
                case,
                failure,
                axes,
            )
            emit(f"seed {seed}: repro written to {record.repro_path}")
        result.failures.append(record)
    result.elapsed_seconds = time.monotonic() - started
    return result


def run_one(
    seed: int,
    axes: Sequence[str] = ALL_AXES,
    trace_packets: Optional[int] = None,
    store_root: Optional[str] = None,
) -> List[AxisFailure]:
    """One seeded iteration across ``axes`` (the CI smoke entry point)."""
    case = generate_case(seed, trace_packets=trace_packets)
    return run_axes(case, axes, store_root=store_root)
