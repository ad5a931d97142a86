"""Randomized program fuzzing with differential oracles.

Seeded random well-formed IR programs + traces
(:mod:`repro.fuzz.generator`), four differential oracle axes over the
full pipeline (:mod:`repro.fuzz.differential`), failing-case
minimization with replayable repro files (:mod:`repro.fuzz.shrinker`),
and the campaign driver behind ``p2go fuzz``
(:mod:`repro.fuzz.harness`).
"""

from repro.fuzz.differential import (
    ALL_AXES,
    AxisFailure,
    canonical,
    run_axes,
    unknown_axes,
)
from repro.fuzz.generator import GeneratedCase, generate_case
from repro.fuzz.harness import (
    BROKEN_ACTION,
    CampaignResult,
    FailureRecord,
    break_optimizer,
    run_campaign,
    run_one,
)
from repro.fuzz.shrinker import (
    load_repro,
    remove_table,
    replay_repro,
    shrink_case,
    write_repro,
)

__all__ = [
    "ALL_AXES",
    "AxisFailure",
    "BROKEN_ACTION",
    "CampaignResult",
    "FailureRecord",
    "GeneratedCase",
    "break_optimizer",
    "canonical",
    "generate_case",
    "load_repro",
    "remove_table",
    "replay_repro",
    "run_axes",
    "run_campaign",
    "run_one",
    "shrink_case",
    "unknown_axes",
    "write_repro",
]
