"""The profile fold against a naive per-packet reference, and its work
bound.

:meth:`~repro.core.profiler.Profiler.run` folds each *distinct* step log
once and weights it by its packet count.  That must be invisible in the
output, down to the bytes a stored profile pickles to (its decisions
by value: the profile shares one tuple per distinct decision), so over
every bit-identity input and the fuzz generator's CI corpus the profile
is held to :func:`reference_fields`: every packet's step log folded on
its own, in trace order.  The reference replays with the switch and
shares only the :class:`~repro.core.profiler.Profile` field names; it
calls no ``repro.core.profiler`` code.

The last test counts work without a clock: a cold optimize calls the
fold at most once per distinct step log of each replay it executes, and
keeps no replay's results alive past the packet that produced them.
"""

from __future__ import annotations

import pickle
import weakref
from collections import Counter

import pytest

import repro.core.profiler as profiler_module
from repro.core.pipeline import P2GO
from repro.fuzz.generator import generate_case
from repro.programs import example_firewall as fw
from repro.sim import BehavioralSwitch
from tests.test_profiling_engine import BIT_IDENTITY_INPUTS, _fresh_config


def reference_fields(program, config, trace):
    """The profile of ``trace`` as a per-packet fold, field by field in
    ``Profile``'s order: dict keys in first-seen order, set members
    inserted packet by packet."""
    results = BehavioralSwitch(program, config).process_many(trace)
    packets = [
        (
            frozenset((step.table, step.action) for step in r.steps),
            frozenset(step.table for step in r.steps if step.hit),
            frozenset(step.table for step in r.steps),
            r.forwarding_decision(),
        )
        for r in results
    ]
    return {
        "program_name": program.name,
        "total_packets": len(packets),
        "apply_counts": dict(
            Counter(t for _p, _h, applied, _d in packets for t in applied)
        ),
        "hit_counts": dict(
            Counter(t for _p, hits, _a, _d in packets for t in hits)
        ),
        "action_counts": dict(
            Counter(a for pairs, _h, _a, _d in packets for a in pairs)
        ),
        "nonexclusive_sets": {
            pairs for pairs, _h, _a, _d in packets if pairs
        },
        "decisions": tuple(decision for *_facts, decision in packets),
        "apply_sets": dict(
            Counter(applied for _p, _h, applied, _d in packets if applied)
        ),
        "hit_pairs": frozenset(
            a
            for pairs, hits, _a, _d in packets
            for a in pairs
            if a[0] in hits
        ),
    }


def _assert_profile_pickles_as_reference(program, fresh_config, trace):
    profile, _perf = profiler_module.Profiler(program, fresh_config()).run(
        trace
    )
    expected = reference_fields(program, fresh_config(), trace)
    fields = dict(vars(profile))
    assert list(fields) == list(expected)
    # The profile shares one tuple per distinct decision, which pickles
    # each repeat as a memo reference; the per-packet reference makes a
    # fresh tuple per packet.  So decisions compare by value, and every
    # other field byte for byte (a dataclass pickles its __dict__).
    assert fields.pop("decisions") == expected.pop("decisions")
    assert pickle.dumps(fields) == pickle.dumps(expected)


@pytest.mark.parametrize("name", sorted(BIT_IDENTITY_INPUTS))
def test_profile_pickles_as_per_packet_fold(name):
    module = BIT_IDENTITY_INPUTS[name]
    program = module.build_program()
    _assert_profile_pickles_as_reference(
        program,
        lambda: _fresh_config(module, program),
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
    replays of 4000 packets); the bound is the distinct step logs.  The
    fold also takes each result as the replay produces it: no more than
    one ``SwitchResult`` is ever alive at once, where holding the
    replay's results keeps all 4000."""
    folds = []
    distinct_paths = []
    peak_live = []
    real_fold = profiler_module.path_facts

    def counting_fold(steps):
        folds.append(steps)
        return real_fold(steps)

    class CountingSwitch(BehavioralSwitch):
        def process_many(self, trace, ingress_port=0, into=None):
            sink = [] if into is None else into
            paths = set()
            live = peak = 0

            def dead():
                nonlocal live
                live -= 1

            class Spy:
                def append(self, result):
                    nonlocal live, peak
                    live += 1
                    weakref.finalize(result, dead)
                    peak = max(peak, live)
                    paths.add(tuple(result.steps))
                    sink.append(result)

            super().process_many(trace, ingress_port, Spy())
            distinct_paths.append(len(paths))
            peak_live.append(peak)
            return sink

    monkeypatch.setattr(profiler_module, "path_facts", counting_fold)
    monkeypatch.setattr(profiler_module, "BehavioralSwitch", CountingSwitch)
    result = P2GO(
        fw.build_program(),
        fw.runtime_config(),
        fw.make_trace(4000),
        fw.TARGET,
        workers=1,
        store=False,
    ).run()
    replays = result.session_counters.profile_executions
    assert replays == len(distinct_paths) >= 2
    assert len(folds) <= sum(distinct_paths) < 4000
    assert max(peak_live) == 1
