"""Property tests: stage-allocation invariants over random programs.

For any generated program, the allocator must (1) place every applied
table on a contiguous stage span, (2) respect every dependency's minimum
stage separation, (3) never oversubscribe a stage's SRAM/TCAM blocks or
table slots, and (4) be deterministic.
"""

from collections import defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import analyse
from repro.p4 import (
    Apply,
    Const,
    Drop,
    FieldRef,
    If,
    ModifyField,
    ProgramBuilder,
    Seq,
    SetEgressPort,
    ValidExpr,
)
from repro.target.allocation import allocate
from repro.target.compiler import compile_program
from repro.target.model import TargetModel
from repro.target.resources import compute_footprints

TARGET = TargetModel(
    name="prop",
    num_stages=32,
    sram_blocks_per_stage=8,
    tcam_blocks_per_stage=4,
    sram_block_bytes=128,
    tcam_block_bytes=64,
    max_tables_per_stage=3,
)

META_FIELDS = ("m0", "m1", "m2")

# Action palettes: (name suffix, primitive factory)
ACTION_KINDS = st.sampled_from(["drop", "egress", "write0", "write1",
                                "copy01", "none"])
KEY_KINDS = st.sampled_from(["exact_f1", "exact_f2", "lpm_f1", "exact_m0",
                             "keyless"])


@st.composite
def random_programs(draw):
    n_tables = draw(st.integers(2, 6))
    b = ProgramBuilder("prop")
    b.header_type("h_t", [("f1", 32), ("f2", 16)])
    b.header("h", "h_t")
    b.metadata("m", [(f, 16) for f in META_FIELDS])
    b.parser_state("start", extracts=["h"])

    def primitives_for(kind):
        if kind == "drop":
            return [Drop()]
        if kind == "egress":
            return [SetEgressPort(Const(2))]
        if kind == "write0":
            return [ModifyField(FieldRef("m", "m0"), Const(1))]
        if kind == "write1":
            return [ModifyField(FieldRef("m", "m1"), Const(1))]
        if kind == "copy01":
            return [ModifyField(FieldRef("m", "m1"), FieldRef("m", "m0"))]
        return []

    nodes = []
    for i in range(n_tables):
        action_kind = draw(ACTION_KINDS)
        key_kind = draw(KEY_KINDS)
        size = draw(st.sampled_from([1, 8, 32, 128, 512]))
        b.action(f"a{i}", primitives_for(action_kind))
        keys = {
            "exact_f1": [("h.f1", "exact")],
            "exact_f2": [("h.f2", "exact")],
            "lpm_f1": [("h.f1", "lpm")],
            "exact_m0": [("m.m0", "exact")],
            "keyless": [],
        }[key_kind]
        if keys:
            b.table(f"t{i}", keys=keys, actions=[f"a{i}"], size=size)
        else:
            b.table(f"t{i}", keys=[], actions=[], default_action=f"a{i}")
        node = Apply(f"t{i}")
        if draw(st.booleans()):
            node = If(ValidExpr("h"), node)
        nodes.append(node)
    b.ingress(Seq(nodes))
    return b.build()


@settings(max_examples=60, deadline=None)
@given(random_programs())
def test_allocation_invariants(program):
    result = compile_program(program, TARGET)
    placements = result.allocation.placements
    footprints = compute_footprints(program)

    # (1) Every applied table is placed on a contiguous span.
    for table in program.tables_in_control_order():
        placement = placements[table]
        assert placement.first_stage <= placement.last_stage
        stage_list = placement.stages()
        assert stage_list == list(
            range(placement.first_stage, placement.last_stage + 1)
        )

    # (2) Dependencies respected.
    dep_graph = result.dependency_graph
    for dep in dep_graph.edges():
        src = placements[dep.src]
        dst = placements[dep.dst]
        if dep.kind.aligns_to_first_stage:
            assert dst.first_stage >= src.first_stage, (
                f"{dep.src}->{dep.dst} ({dep.kind})"
            )
        else:
            assert (
                dst.first_stage >= src.last_stage + dep.min_stage_separation
            ), f"{dep.src}->{dep.dst} ({dep.kind})"

    # (3) No stage oversubscribed — recomputed from the placements.
    sram = defaultdict(int)
    tcam = defaultdict(int)
    slots = defaultdict(int)
    for table, placement in placements.items():
        footprint = footprints[table]
        for stage in placement.stages():
            slots[stage] += 1
        for stage, blocks in placement.match_blocks_by_stage:
            if footprint.is_ternary:
                tcam[stage] += blocks
            else:
                sram[stage] += blocks
        for register, stage in placement.register_stage:
            register_blocks = dict(
                footprint.register_blocks(TARGET)
            )[register]
            sram[stage] += register_blocks
            assert placement.first_stage <= stage <= placement.last_stage
    for stage, used in sram.items():
        assert used <= TARGET.sram_blocks_per_stage, f"stage {stage} SRAM"
    for stage, used in tcam.items():
        assert used <= TARGET.tcam_blocks_per_stage, f"stage {stage} TCAM"
    for stage, used in slots.items():
        assert used <= TARGET.max_tables_per_stage, f"stage {stage} slots"

    # (4) Full match memory accounted for.
    for table, placement in placements.items():
        footprint = footprints[table]
        placed = sum(b for _s, b in placement.match_blocks_by_stage)
        assert placed == footprint.match_blocks(TARGET)


@settings(max_examples=25, deadline=None)
@given(random_programs())
def test_allocation_deterministic(program):
    first = compile_program(program, TARGET)
    second = compile_program(program.clone(), TARGET)
    assert first.stage_map() == second.stage_map()
    assert first.stages_used == second.stages_used


@settings(max_examples=25, deadline=None)
@given(random_programs())
def test_instrumentation_never_increases_stages(program):
    """§3.1's claim, as a universal property over random programs."""
    from repro.core.instrument import instrument

    before = compile_program(program, TARGET).stages_used
    after = compile_program(instrument(program).program, TARGET).stages_used
    assert after <= before


@settings(max_examples=25, deadline=None)
@given(random_programs())
def test_stage_map_consistent_with_placements(program):
    """stage_map() is a faithful projection of the placements: a table
    appears in exactly the stages of its span, and stages_used covers the
    highest occupied stage."""
    result = compile_program(program, TARGET)
    placements = result.allocation.placements
    stage_map = result.stage_map()
    assert len(stage_map) == result.stages_used
    assert result.stages_used == 1 + max(
        p.last_stage for p in placements.values()
    )
    for table, placement in placements.items():
        span = set(placement.stages())
        for stage, tables in enumerate(stage_map):
            assert (table in tables) == (stage in span)


@settings(max_examples=25, deadline=None)
@given(random_programs())
def test_placement_independent_of_stage_count(program):
    """num_stages only decides fits — §2.2's virtual stages mean the
    placement itself is identical on a 1-stage variant of the target."""
    one_stage = TargetModel(
        name="prop-one",
        num_stages=1,
        sram_blocks_per_stage=TARGET.sram_blocks_per_stage,
        tcam_blocks_per_stage=TARGET.tcam_blocks_per_stage,
        sram_block_bytes=TARGET.sram_block_bytes,
        tcam_block_bytes=TARGET.tcam_block_bytes,
        max_tables_per_stage=TARGET.max_tables_per_stage,
    )
    wide = compile_program(program, TARGET)
    narrow = compile_program(program, one_stage)
    assert narrow.stage_map() == wide.stage_map()
    assert narrow.stages_used == wide.stages_used
    assert narrow.fits == (narrow.stages_used <= 1)
    assert wide.fits == (wide.stages_used <= TARGET.num_stages)


@settings(max_examples=25, deadline=None)
@given(random_programs())
def test_conflicting_pairs_in_distinct_ordered_stages(program):
    """MATCH/ACTION-dependent pairs never share a stage: the consumer's
    whole span starts strictly after the producer's ends."""
    result = compile_program(program, TARGET)
    placements = result.allocation.placements
    for dep in result.dependency_graph.edges():
        if dep.min_stage_separation < 1:
            continue
        src, dst = placements[dep.src], placements[dep.dst]
        assert dst.first_stage > src.last_stage
        assert not (set(src.stages()) & set(dst.stages()))


@st.composite
def register_programs(draw):
    """Programs whose tables own register arrays (one array per table)."""
    from repro.p4.actions import RegisterWrite

    n_tables = draw(st.integers(1, 4))
    b = ProgramBuilder("regprop")
    b.header_type("h_t", [("f1", 32), ("f2", 16)])
    b.header("h", "h_t")
    b.parser_state("start", extracts=["h"])
    nodes = []
    for i in range(n_tables):
        # 32-bit cells: 16..256 cells = 64..1024 B, at most one full stage.
        cells = draw(st.sampled_from([16, 64, 128, 200, 256]))
        b.register(f"r{i}", width=32, size=cells)
        b.action(f"w{i}", [RegisterWrite(f"r{i}", Const(0), Const(1))])
        if draw(st.booleans()):
            b.table(
                f"t{i}",
                keys=[("h.f1", "exact")],
                actions=[f"w{i}"],
                size=draw(st.sampled_from([1, 4, 16])),
            )
        else:
            b.table(f"t{i}", keys=[], actions=[], default_action=f"w{i}")
        nodes.append(Apply(f"t{i}"))
    b.ingress(Seq(nodes))
    return b.build()


@settings(max_examples=40, deadline=None)
@given(register_programs())
def test_registers_colocated_at_owner_first_stage(program):
    """Every owned array lands whole in the stage where its table
    executes (one stateful ALU per array), and per-stage SRAM accounting
    covers at least the recomputed match + register blocks."""
    allocation = allocate(program, analyse(program), TARGET)
    footprints = compute_footprints(program)
    recomputed = defaultdict(int)
    for table, placement in allocation.placements.items():
        placed_registers = dict(placement.register_stage)
        for name, blocks in footprints[table].register_blocks(TARGET):
            assert placed_registers[name] == placement.first_stage
            recomputed[placement.first_stage] += blocks
        for stage, blocks in placement.match_blocks_by_stage:
            recomputed[stage] += blocks
    for stage, used in recomputed.items():
        assert used <= allocation.sram_used_by_stage[stage]
        assert (
            allocation.sram_used_by_stage[stage]
            <= TARGET.sram_blocks_per_stage
        )
