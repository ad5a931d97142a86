"""The fuzz subsystem: generator, oracle axes, shrinker, repro files.

Three layers of assurance:

* the generator's programs are well-formed (round-trip the DSL, compile
  on the default target) and seeded generation is deterministic;
* one full seeded iteration across all five oracle axes passes — the
  tier-1 smoke the CI quick leg extends to 25 seeds;
* mutation testing: a deliberately broken "pass" is caught by the
  behaviour axis, shrunk to a minimal case, and the written repro file
  replays — while the shrinker refuses to drift from the original
  failure onto unrelated crashes.

Plus the pinned regression for the soundness bug the fuzzer found in
phase 2 (see ``test_phase2_relocation_respects_hit_coapplication``).
"""

import json
import random

import pytest

from repro.controller.equivalence import compare_behavior
from repro.core.phase_dependencies import find_removal_candidates
from repro.core.pipeline import P2GO
from repro.core.profiler import Profile, profile_program
from repro.fuzz import (
    ALL_AXES,
    break_optimizer,
    generate_case,
    load_repro,
    remove_table,
    replay_repro,
    run_axes,
    run_campaign,
    run_one,
    shrink_case,
    write_repro,
)
from repro.fuzz.generator import generate_program
from repro.p4 import (
    Apply,
    Const,
    Drop,
    FieldRef,
    ModifyField,
    ProgramBuilder,
    Seq,
)
from repro.packets.craft import udp_packet
from repro.sim.events import ExecutionStep
from repro.sim.runtime import RuntimeConfig
from repro.target.compiler import compile_program
from repro.target.model import DEFAULT_TARGET
from tests.test_dsl_roundtrip import assert_round_trips

#: Small traces keep the oracle tests fast (a full pipeline run per axis).
FAST_TRACE = 30


# ----------------------------------------------------------------------
# Generator properties


@pytest.mark.parametrize("seed", range(50))
def test_generated_program_round_trips(seed):
    """Satellite property: printer -> parser is lossless on 50 seeded
    fuzz-generated programs."""
    program, _pools, _plans = generate_program(
        random.Random(seed), f"fuzz_{seed}"
    )
    assert_round_trips(program)


@pytest.mark.parametrize("seed", (0, 11, 29))
def test_generated_case_compiles_and_simulates(seed):
    case = generate_case(seed, trace_packets=FAST_TRACE)
    case.program.validate()
    case.config.validate(case.program)
    result = compile_program(case.program, DEFAULT_TARGET)
    assert result.fits
    profile = profile_program(case.program, case.config, case.trace)
    assert profile.total_packets == len(case.trace)


def test_generation_is_deterministic():
    a = generate_case(42, trace_packets=FAST_TRACE)
    b = generate_case(42, trace_packets=FAST_TRACE)
    from repro.p4.dsl import print_program

    assert print_program(a.program) == print_program(b.program)
    assert a.trace == b.trace
    assert a.config.entries == b.config.entries


def test_different_seeds_differ():
    a = generate_case(1, trace_packets=FAST_TRACE)
    b = generate_case(2, trace_packets=FAST_TRACE)
    from repro.p4.dsl import print_program

    assert (
        print_program(a.program) != print_program(b.program)
        or a.trace != b.trace
    )


# ----------------------------------------------------------------------
# Oracle axes


def test_one_seed_all_axes_smoke(tmp_path):
    """Tier-1 smoke: one seeded iteration passes all five axes."""
    failures = run_one(0, store_root=str(tmp_path))
    assert failures == []


def test_unknown_axis_rejected():
    with pytest.raises(ValueError, match="unknown axes"):
        run_axes(generate_case(0, trace_packets=FAST_TRACE), axes=("bogus",))


def test_shrink_requires_a_failing_case():
    case = generate_case(0, trace_packets=FAST_TRACE)
    with pytest.raises(ValueError, match="does not fail"):
        shrink_case(case, axes=("behavior",))


# ----------------------------------------------------------------------
# Mutation testing: the harness catches a broken pass end to end


def test_broken_pass_is_caught_and_shrunk(tmp_path):
    case = generate_case(3)
    failures = run_axes(case, axes=("behavior",), mutator=break_optimizer)
    assert failures and failures[0].axis == "behavior"

    small, failure = shrink_case(
        case, axes=("behavior",), mutator=break_optimizer
    )
    # Minimal repro: the shrinker gets down to one table and one packet
    # (pinned loosely so legitimate shrinker changes don't churn it).
    assert len(small.program.tables) <= 2
    assert len(small.trace) <= 3
    assert failure.axis == "behavior"
    assert small.program.tables  # never shrunk into a different bug

    path = write_repro(
        tmp_path / "repro.json", small, failure, axes=("behavior",)
    )
    loaded, axes = load_repro(path)
    assert axes == ["behavior"]
    assert sorted(loaded.program.tables) == sorted(small.program.tables)
    assert loaded.trace == small.trace
    # The repro still fails under the broken pass...
    assert run_axes(loaded, axes, mutator=break_optimizer)
    # ...and passes under the real optimizer.
    assert replay_repro(path) == []


def test_repro_file_is_self_contained(tmp_path):
    case = generate_case(5, trace_packets=FAST_TRACE)
    failures = run_axes(case, axes=("behavior",), mutator=break_optimizer)
    if not failures:
        pytest.skip("seed 5 does not expose the sabotage on a short trace")
    path = write_repro(tmp_path / "r.json", case, failures[0])
    payload = json.loads(path.read_text())
    assert set(payload) >= {
        "seed", "axes", "failure", "program", "config", "trace", "target",
    }
    assert payload["failure"]["axis"] == "behavior"


def test_campaign_reports_and_continues(tmp_path):
    result = run_campaign(
        base_seed=3,
        iterations=2,
        axes=("behavior",),
        mutator=break_optimizer,
        repro_dir=tmp_path,
    )
    assert result.iterations == 2
    assert not result.ok
    for record in result.failures:
        assert record.repro_path is not None
        assert record.repro_path.exists()
        assert record.shrunk_tables >= 1


def test_campaign_counts_offloading_cases_the_behavior_axis_checked():
    """Seed 27 is the one generated case of seeds 0-59 whose (2,3,4)
    run offloads: the behavior axis holds switch + controller to the
    original through ``check_result``.  A campaign that checked no
    offloading case never exercised phase 4's contract — the count
    makes that visible."""
    result = run_campaign(base_seed=27, iterations=1, axes=("behavior",))
    assert result.ok
    assert result.exercised["offload_checked"] == 1


def test_campaign_time_budget_stops_early():
    result = run_campaign(
        base_seed=0,
        iterations=10_000,
        time_budget=0.0,
        axes=("behavior",),
        trace_packets=FAST_TRACE,
    )
    assert result.iterations == 0


# ----------------------------------------------------------------------
# Shrinker surgery


def test_remove_table_prunes_orphans():
    case = generate_case(7, trace_packets=FAST_TRACE)
    victim = sorted(case.program.tables)[0]
    reduced = remove_table(case, victim)
    assert reduced is not None
    assert victim not in reduced.program.tables
    reduced.program.validate()
    reduced.config.validate(reduced.program)
    # Actions referenced by no table are gone (except NoAction).
    referenced = {"NoAction"}
    for table in reduced.program.tables.values():
        referenced.update(table.actions)
        referenced.add(table.default_action)
    assert set(reduced.program.actions) <= referenced


# ----------------------------------------------------------------------
# The bug the fuzzer found: phase 2 relocation vs hit co-application


def _relocation_bug_fixture():
    """A two-table program where the pre-fix phase 2 changed behaviour.

    ``t_src`` and ``t_dst`` carry a static write-write (ACTION)
    dependency through ``dscp``.  The trace never co-applies the two
    conflicting actions — ``t_dst``'s only entry never matches — so the
    dependency is unmanifested.  But every packet that *hits* ``t_src``
    also traverses ``t_dst``, whose default drops; relocating ``t_dst``
    into ``t_src``'s miss branch would un-drop all of them.
    """
    b = ProgramBuilder("reloc_bug")
    b.header_type("ipv4_t", [("dscp", 8), ("srcAddr", 32), ("dstAddr", 32)])
    b.header("ipv4", "ipv4_t")
    b.parser_state("start", extracts=["ipv4"])
    b.parser_start("start")
    b.action("mark_a", [ModifyField(FieldRef("ipv4", "dscp"), Const(7))])
    b.action("mark_b", [ModifyField(FieldRef("ipv4", "dscp"), Const(9))])
    b.action("drop_b", [Drop()])
    b.table(
        "t_src", keys=[("ipv4.dstAddr", "exact")], actions=["mark_a"],
        size=8,
    )
    b.table(
        "t_dst", keys=[("ipv4.srcAddr", "exact")], actions=["mark_b"],
        default_action="drop_b", size=8,
    )
    b.ingress(Seq([Apply("t_src"), Apply("t_dst")]))
    program = b.build()

    cfg = RuntimeConfig()
    cfg.add_entry("t_src", [0xC0A80001], "mark_a")
    cfg.add_entry("t_dst", [0xDEADBEEF], "mark_b")  # never matches

    from repro.packets.packet import pack_fields
    from repro.packets import headers as hdr  # noqa: F401

    trace = []
    for i in range(12):
        trace.append(
            pack_fields(
                program.header_types["ipv4_t"],
                {"dscp": 0, "srcAddr": 0x0A000001 + i,
                 "dstAddr": 0xC0A80001},
            )
        )
    return program, cfg, trace


def test_phase2_relocation_respects_hit_coapplication():
    """Pinned regression: the fuzz campaign's first real find.

    Before the fix, ``find_removal_candidates`` proposed relocating
    ``t_dst`` under ``t_src``'s miss branch because the static
    dependency's action pair never co-applied — ignoring that the
    rewrite also suppresses ``t_dst``'s *default* on every src-hit
    packet (here: a drop).
    """
    program, cfg, trace = _relocation_bug_fixture()
    profile = profile_program(program, cfg, trace)
    assert profile.hit_coapplied_with_table("t_src", "t_dst")

    compiled = compile_program(program, DEFAULT_TARGET)
    candidates = find_removal_candidates(compiled, profile)
    assert not any(
        c.src == "t_src" and c.dst == "t_dst"
        for c in candidates
    )

    # End to end: the full pipeline preserves behaviour on this trace.
    result = P2GO(program, cfg.clone(), trace, DEFAULT_TARGET,
                  phases=(2, 3)).run()
    report = compare_behavior(
        program, cfg.clone(),
        result.optimized_program, result.final_config.clone(),
        trace,
    )
    assert report.equivalent


def test_hit_coapplied_with_table_unit():
    profile = Profile(
        program_name="p",
        paths={
            (
                ExecutionStep("a", "hit_act", True),
                ExecutionStep("b", "dflt", False),
            ): 1,
            (ExecutionStep("b", "dflt", False),): 1,
        },
        decisions=((0, False, False),) * 2,
    )
    assert profile.hit_coapplied_with_table("a", "b")
    assert not profile.hit_coapplied_with_table("b", "a")
    assert not profile.hit_coapplied_with_table("a", "missing")


def test_previously_failing_seeds_pass_behavior_axis():
    """Seeds 4 and 10 reproduced the relocation bug before the fix."""
    for seed in (4, 10):
        assert run_axes(generate_case(seed), axes=("behavior",)) == []
