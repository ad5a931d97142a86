"""The profile's views against a naive per-packet reference, and the
fold's work bound.

A :class:`~repro.core.profiler.Profile` stores packets per distinct step
log and folds each path once, weighted by its packet count, when a view
is first read.  That must be invisible in every view, before and after
the profile goes through pickle (a stored profile is its three fields),
so over every bit-identity input and the fuzz generator's CI corpus the
profile is held to :func:`reference_views`: every packet's step log
folded on its own, in trace order.  The reference replays with the
switch and shares only the view names; it calls no
``repro.core.profiler`` code.

The last test counts work without a clock: a cold optimize calls the
fold at most once per distinct step log of each replay it executes, and
its replays build no result and deparse no packet.
"""

from __future__ import annotations

import pickle
from collections import Counter

import pytest

import repro.core.profiler as profiler_module
import repro.sim.switch as switch_module
from repro.core.pipeline import P2GO
from repro.fuzz.generator import generate_case
from repro.programs import example_firewall as fw
from repro.sim import BehavioralSwitch
from tests.test_profiling_engine import BIT_IDENTITY_INPUTS

#: The views compared by value; the dicts among them also by key order.
VIEWS = (
    "paths",
    "total_packets",
    "apply_counts",
    "hit_counts",
    "action_counts",
    "nonexclusive_sets",
    "decisions",
)


def reference_views(program, config, trace):
    """The profile of ``trace`` as a per-packet fold, view by view: dict
    keys in first-seen order; each hit query answered packet by packet
    for every ordered table pair."""
    results = BehavioralSwitch(program, config).process_many(trace)
    packets = [
        (
            tuple(r.steps),
            frozenset((step.table, step.action) for step in r.steps),
            frozenset(step.table for step in r.steps if step.hit),
            frozenset(step.table for step in r.steps),
            r.forwarding_decision(),
        )
        for r in results
    ]
    tables = list(program.tables)
    return {
        "paths": dict(Counter(steps for steps, *_rest in packets)),
        "total_packets": len(packets),
        "apply_counts": dict(
            Counter(t for _s, _p, _h, applied, _d in packets for t in applied)
        ),
        "hit_counts": dict(
            Counter(t for _s, _p, hits, _a, _d in packets for t in hits)
        ),
        "action_counts": dict(
            Counter(a for _s, pairs, _h, _a, _d in packets for a in pairs)
        ),
        "nonexclusive_sets": {
            pairs for _s, pairs, _h, _a, _d in packets if pairs
        },
        "decisions": tuple(decision for *_facts, decision in packets),
        "hit_coapplied_with_table": {
            (src, dst): any(
                src in hits and dst in applied
                for _s, _p, hits, applied, _d in packets
            )
            for src in tables
            for dst in tables
        },
        "hit_action_sets": {
            frozenset(a for a in pairs if a[0] in hits)
            for _s, pairs, hits, _a, _d in packets
        } - {frozenset()},
    }


def _assert_views_equal(profile, expected):
    for name in VIEWS:
        got, want = getattr(profile, name), expected[name]
        assert got == want, name
        if isinstance(want, dict):
            assert list(got) == list(want), name
    for (src, dst), want in expected["hit_coapplied_with_table"].items():
        assert profile.hit_coapplied_with_table(src, dst) == want, (src, dst)
    sets = profile.hit_action_sets()
    assert len(sets) == len(expected["hit_action_sets"])
    assert set(sets) == expected["hit_action_sets"]


def _assert_profile_pickles_as_reference(program, fresh_config, trace):
    """The fresh profile and its pickled round trip both read as the
    per-packet fold; the round trip carries the three fields and none
    of the fold the views cached."""
    profile = profiler_module.Profiler(program, fresh_config()).run(trace)
    expected = reference_views(program, fresh_config(), trace)
    _assert_views_equal(profile, expected)
    stored = pickle.loads(pickle.dumps(profile))
    assert list(vars(stored)) == ["program_name", "paths", "decisions"]
    assert stored == profile
    _assert_views_equal(stored, expected)


@pytest.mark.parametrize("name", sorted(BIT_IDENTITY_INPUTS))
def test_profile_pickles_as_per_packet_fold(name):
    module = BIT_IDENTITY_INPUTS[name]
    program = module.build_program()
    _assert_profile_pickles_as_reference(
        program,
        module.runtime_config,
        module.make_trace(600),
    )


@pytest.mark.parametrize("seed", range(25))
def test_generated_profile_pickles_as_per_packet_fold(seed):
    case = generate_case(seed)
    _assert_profile_pickles_as_reference(
        case.program, case.config.clone, case.trace
    )


def test_cold_optimize_folds_each_distinct_step_log_once(monkeypatch):
    """Per-packet folding made 40 000 fold calls on this run (ten
    replays of 4000 packets); the bound is the distinct step logs.  A
    profiling replay hands its sink steps and decisions only: it builds
    no ``SwitchResult`` and deparses nothing, where each replay used to
    build and pack all 4000."""
    folds = []
    distinct_paths = []
    built = []
    replaying = [False]
    real_fold = profiler_module.path_facts

    def counting_fold(steps):
        folds.append(steps)
        return real_fold(steps)

    class CountingResult(switch_module.SwitchResult):
        def __init__(self, *args, **kwargs):
            built.append(replaying[0])
            super().__init__(*args, **kwargs)

    class CountingSwitch(BehavioralSwitch):
        def process_many(self, trace, ingress_port=0, into=None):
            replaying[0] = True
            try:
                sink = super().process_many(trace, ingress_port, into)
            finally:
                replaying[0] = False
            distinct_paths.append(len(sink.paths))
            return sink

    monkeypatch.setattr(profiler_module, "path_facts", counting_fold)
    monkeypatch.setattr(profiler_module, "BehavioralSwitch", CountingSwitch)
    monkeypatch.setattr(switch_module, "SwitchResult", CountingResult)
    result = P2GO(
        fw.build_program(),
        fw.runtime_config(),
        fw.make_trace(4000),
        fw.TARGET,
        store=False,
    ).run()
    replays = result.session_counters.profile_executions
    assert replays == len(distinct_paths) >= 2
    assert len(folds) <= sum(distinct_paths) < 4000
    assert True not in built
