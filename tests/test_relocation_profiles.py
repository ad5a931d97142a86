"""A licensed relocation replays nothing (DESIGN.md §5).

Phase 2 moves ``dst`` into ``src``'s miss branch only when no profiled
packet hit ``src`` while ``dst`` was applied, so on the profiled trace
the rewritten program runs every packet step for step like its parent.
The session therefore enters the round's profile as the rewritten
program's.  The oracle here is a fresh :class:`Profiler` replay of the
rewritten program, which shares nothing with that argument.  What the
adoption saves is pinned in ``tests/test_resize_probes.py``: a cold
firewall run executes three profiles.
"""

import pytest

from repro import programs
from repro.core.fleet import family_inputs
from repro.core.phase_dependencies import DependencyRemovalPass
from repro.core.profiler import Profiler
from repro.core.session import OptimizationContext, Source
from repro.fuzz.generator import generate_case

FAMILIES = [n for n in programs.__all__ if n != "EXAMPLE_TARGET"]

CASES = [
    ("family", family, seed) for family in FAMILIES for seed in (0, 1)
] + [("seed", seed, None) for seed in range(100)]


def inputs(case):
    kind, value, trace_seed = case
    if kind == "family":
        return family_inputs(value, packets=1500, trace_seed=trace_seed)
    generated = generate_case(value)
    return (
        generated.program, generated.config, generated.trace,
        generated.target,
    )


def relocations(program, config, trace, target):
    """Run phase 2's rounds as the pass manager does (every accepted
    relocation applied): yield each rewritten program with the profile
    the session returns for it, and the source that answered."""
    ctx = OptimizationContext(program, config, trace, target)
    removal = DependencyRemovalPass()
    for _round in range(removal.max_rounds):
        result = removal.run(ctx)
        if result.program is None:
            return
        ctx.program = result.program
        profile = ctx.profile()
        yield ctx.program, profile, ctx.probes[-1].source


@pytest.mark.parametrize(
    "case", CASES, ids=lambda c: "-".join(str(p) for p in c if p is not None)
)
def test_a_relocation_profile_equals_its_replay(case):
    program, config, trace, target = inputs(case)
    for rewritten, profile, source in relocations(
        program, config, trace, target
    ):
        assert source is Source.MEMO
        replayed = Profiler(rewritten, config).run(trace)
        assert list(profile.paths.items()) == list(replayed.paths.items())
        assert profile.decisions == replayed.decisions
        assert profile.program_name == replayed.program_name


def test_the_corpus_relocates():
    """The differential test above is not vacuous: ``enterprise``,
    ``example_firewall`` and ``nat_gre`` relocate once on each trace,
    and fuzz seeds 0-99 relocate 63 times."""
    counts = {"family": 0, "seed": 0}
    for case in CASES:
        counts[case[0]] += sum(1 for _ in relocations(*inputs(case)))
    assert counts == {"family": 6, "seed": 63}

