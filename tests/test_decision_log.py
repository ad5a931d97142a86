"""One decision per enumerated candidate, each with a closed-set reason.

Every round of phases 2–4 logs one :class:`Decision` per candidate it
enumerates, in enumeration order, up to and including the one it
accepts.  This test recounts each round's candidates without the phase
code — critical dependencies from the round's compile result, halvable
resources from its program, self-contained segments from
``enumerate_candidates`` — and holds the round's decisions to exactly
those, over the bundled programs and the fuzz CI corpus.  It also holds
the seed orchestrator's log to the pass framework's.
"""

from __future__ import annotations

import pkgutil

import pytest

import repro.programs
from repro.core import phase_dependencies, phase_memory, phase_offload
from repro.core.fleet import family_inputs
from repro.core.observations import Phase, Reason, Verdict
from repro.core.phase_offload import enumerate_candidates
from repro.core.pipeline import P2GO
from repro.core.seed_pipeline import run_seed
from repro.fuzz.generator import generate_case

FAMILIES = sorted(
    module.name
    for module in pkgutil.iter_modules(repro.programs.__path__)
    if module.name != "common"
)

#: ``p2go fuzz --seed 0 --iterations 25`` is the CI leg.
FUZZ_SEEDS = range(25)


def critical_dependencies(compile_result):
    return sorted(
        (
            dep
            for dep in compile_result.dependency_graph.critical_dependencies()
            if dep.kind.min_stage_separation > 0
        ),
        key=lambda dep: (dep.src, dep.dst),
    )


def halvable_resources(program):
    tables = {
        ("table", t.name)
        for t in program.tables.values()
        if t.size >= 2 and t.keys
    }
    registers = {
        ("register", r.name)
        for r in program.registers.values()
        if r.size >= 2 and program.tables_accessing_register(r.name)
    }
    return tables | registers


def check_prefix(decisions, enumerated, key):
    """The decisions are the enumerated candidates in order, up to the
    accepted one (all of them when none was accepted)."""
    accepted = [d.verdict is Verdict.ACCEPTED for d in decisions]
    assert accepted in ([False] * len(decisions),
                        [False] * (len(decisions) - 1) + [True])
    assert [key(d) for d in decisions] == enumerated[: len(decisions)]
    if not any(accepted):
        assert len(decisions) == len(enumerated)


def check_round(phase, args, step):
    decisions = step.decisions
    assert all(d.phase is phase for d in decisions)
    for d in decisions:
        assert d.reason is None or isinstance(d.reason, Reason)
        assert (d.reason is None) == (d.verdict is Verdict.ACCEPTED)
    if phase is Phase.REMOVE_DEPENDENCIES:
        _program, compile_result, _profile = args
        check_prefix(
            decisions, critical_dependencies(compile_result),
            key=lambda d: d.candidate,
        )
    elif phase is Phase.REDUCE_MEMORY:
        _ctx, program, _config, _profile = args[:4]
        decided = [(d.candidate.kind.value, d.candidate.name)
                   for d in decisions]
        assert len(set(decided)) == len(decided)
        assert set(decided) <= halvable_resources(program)
        if step.accepted is None:
            assert set(decided) == halvable_resources(program)
        else:
            assert decisions[-1] is step.accepted
        rates = [d.candidate.hit_rate for d in decisions]
        assert rates == sorted(rates)  # the paper's default order
    else:
        _ctx, program, _config = args[:3]
        segments = [c.tables for c in enumerate_candidates(program)]
        assert [d.candidate.segment.tables for d in decisions] == segments
        assert sum(d.verdict is Verdict.ACCEPTED for d in decisions) <= 1


@pytest.fixture
def rounds(monkeypatch):
    """Every round the phases run: (phase, args, PassResult)."""
    recorded = []
    for phase, module in (
        (Phase.REMOVE_DEPENDENCIES, phase_dependencies),
        (Phase.REDUCE_MEMORY, phase_memory),
        (Phase.OFFLOAD_CODE, phase_offload),
    ):
        def recording(*args, _run=module.run_phase, _phase=phase, **kw):
            step = _run(*args, **kw)
            recorded.append((_phase, args, step))
            return step

        monkeypatch.setattr(module, "run_phase", recording)
    return recorded


def check_log(rounds, inputs):
    program, config, trace, target = inputs
    result = P2GO(program, config.clone(), trace, target).run()
    assert rounds
    for phase, args, step in rounds:
        check_round(phase, args, step)
    assert result.decisions == tuple(
        d for _phase, _args, step in rounds for d in step.decisions
    )
    rounds.clear()
    seed = run_seed(program, config.clone(), trace, target)
    assert seed.decisions == result.decisions
    return result


@pytest.mark.parametrize("family", FAMILIES)
def test_one_decision_per_candidate_on_every_family(rounds, family):
    result = check_log(rounds, family_inputs(family, packets=400))
    # Every family logs more than the changes it applied.
    assert len(result.decisions) > len(result.applied)


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_one_decision_per_candidate_on_the_fuzz_corpus(rounds, seed):
    case = generate_case(seed)
    check_log(rounds, (case.program, case.config, case.trace, case.target))


def test_the_firewall_logs_every_candidate(rounds):
    """Cold Ex. 1: 6 of its 11 critical dependencies are decided (the
    first round stops at the removal it accepts), all 9 halvings and
    all 5 segments."""
    result = check_log(rounds, family_inputs("example_firewall", 4000))
    per_phase = [
        sum(d.phase is phase for d in result.decisions)
        for phase in (
            Phase.REMOVE_DEPENDENCIES, Phase.REDUCE_MEMORY,
            Phase.OFFLOAD_CODE,
        )
    ]
    assert per_phase == [6, 9, 5]
    assert len(result.applied) == 3
