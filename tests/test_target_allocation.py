"""Tests for stage allocation — packing, spilling, dependency separation."""

import pytest

from repro.analysis import analyse
from repro.exceptions import AllocationError
from repro.p4 import (
    Apply,
    Const,
    Drop,
    FieldRef,
    ModifyField,
    ProgramBuilder,
    Seq,
)
from repro.target.allocation import allocate
from repro.target.compiler import compile_program
from repro.target.model import TargetModel

SMALL = TargetModel(
    name="small",
    num_stages=8,
    sram_blocks_per_stage=4,
    tcam_blocks_per_stage=2,
    sram_block_bytes=64,
    tcam_block_bytes=32,
    max_tables_per_stage=2,
)


def build(tables, ingress=None, registers=(), deps=True):
    b = ProgramBuilder("p")
    b.header_type("h_t", [("f1", 16), ("f2", 16)])
    b.header("h", "h_t")
    b.metadata("m", [("x", 16)])
    for name, width, size in registers:
        b.register(name, width=width, size=size)
    b.action("drop_it", [Drop()])
    b.action("mark", [ModifyField(FieldRef("m", "x"), Const(1))])
    for name, kwargs in tables:
        b.table(name, **kwargs)
    nodes = ingress or [Apply(name) for name, _k in tables]
    b.ingress(Seq(nodes))
    return b.build()


class TestPacking:
    def test_independent_tables_share_a_stage(self):
        program = build(
            [
                ("ta", dict(keys=[("h.f1", "exact")], actions=["mark"],
                            size=4)),
                ("tb", dict(keys=[("h.f2", "exact")], actions=["drop_it"],
                            size=4)),
            ]
        )
        result = compile_program(program, SMALL)
        assert result.stages_used == 1
        assert set(result.stage_map()[0]) == {"ta", "tb"}

    def test_action_dependent_tables_separate(self):
        program = build(
            [
                ("ta", dict(keys=[("h.f1", "exact")], actions=["drop_it"],
                            size=4)),
                ("tb", dict(keys=[("h.f2", "exact")], actions=["drop_it"],
                            size=4)),
            ]
        )
        result = compile_program(program, SMALL)
        assert result.stages_used == 2

    def test_successor_shares_stage(self):
        program = build(
            [
                ("ta", dict(keys=[("h.f1", "exact")], actions=["drop_it"],
                            size=4)),
                ("tb", dict(keys=[("h.f2", "exact")], actions=["drop_it"],
                            size=4)),
            ],
            ingress=[Apply("ta", on_miss=Apply("tb"))],
        )
        result = compile_program(program, SMALL)
        # Miss-guarded: the ACTION conflict cannot manifest, RMT
        # predication packs both into one stage (the §3.2 rewrite's whole
        # point).
        assert result.stages_used == 1

    def test_memory_forces_spill_across_stages(self):
        # 4 blocks/stage of 64B = 256B/stage; an exact table of 128
        # entries x 4B = 512B must span 2 stages.
        program = build(
            [("big", dict(keys=[("h.f1", "exact")], actions=["mark"],
                          size=128))]
        )
        result = compile_program(program, SMALL)
        placement = result.allocation.placements["big"]
        assert placement.first_stage == 0
        assert placement.last_stage == 1

    def test_dependent_of_spanning_table_lands_after_last_stage(self):
        program = build(
            [
                ("big", dict(keys=[("h.f1", "exact")], actions=["drop_it"],
                             size=128)),
                ("next", dict(keys=[("h.f2", "exact")], actions=["drop_it"],
                              size=4)),
            ]
        )
        result = compile_program(program, SMALL)
        assert result.allocation.placements["next"].first_stage == 2

    def test_table_slot_limit(self):
        # max_tables_per_stage=2: three tiny tables with write-free
        # actions (hence no dependencies) still need 2 stages.
        program = build(
            [
                ("t1", dict(keys=[("h.f1", "exact")], actions=[], size=2)),
                ("t2", dict(keys=[("h.f2", "exact")], actions=[], size=2)),
                ("t3", dict(keys=[("h.f1", "exact")], actions=[], size=2)),
            ]
        )
        result = compile_program(program, SMALL)
        assert result.stages_used == 2

    @staticmethod
    def _register_program(cells: int):
        from repro.p4.actions import RegisterWrite

        b = ProgramBuilder("p")
        b.header_type("h_t", [("f1", 16)]).header("h", "h_t")
        b.register("reg", width=8, size=cells)
        b.action("wr", [RegisterWrite("reg", Const(0), Const(1))])
        b.table("t", keys=[], actions=[], default_action="wr")
        b.ingress(Apply("t"))
        return b.build()

    def test_register_must_fit_one_stage(self):
        program = self._register_program(1024)  # 1KB > 256B/stage
        with pytest.raises(AllocationError):
            allocate(program, analyse(program), SMALL)

    def test_register_colocated_with_table(self):
        program = self._register_program(128)  # 2 blocks
        result = compile_program(program, SMALL)
        placement = result.allocation.placements["t"]
        assert dict(placement.register_stage)["reg"] in placement.stages()


class TestVirtualStages:
    def test_oversubscribed_program_reports_not_fits(self):
        tiny = TargetModel(
            name="tiny",
            num_stages=1,
            sram_blocks_per_stage=4,
            tcam_blocks_per_stage=2,
            sram_block_bytes=64,
            tcam_block_bytes=32,
            max_tables_per_stage=2,
        )
        program = build(
            [
                ("ta", dict(keys=[("h.f1", "exact")], actions=["drop_it"],
                            size=4)),
                ("tb", dict(keys=[("h.f2", "exact")], actions=["drop_it"],
                            size=4)),
            ]
        )
        result = compile_program(program, tiny)
        # Compiles in simulation (§2.2 "what if the program does not
        # fit") but reports the overflow.
        assert result.stages_used == 2
        assert not result.fits


class TestStageAccounting:
    def test_sram_usage_reported(self):
        program = build(
            [("t", dict(keys=[("h.f1", "exact")], actions=["mark"],
                        size=4))]
        )
        result = compile_program(program, SMALL)
        assert sum(result.allocation.sram_used_by_stage) >= 1

    def test_stage_map_lists_spanning_table_in_each_stage(self):
        program = build(
            [("big", dict(keys=[("h.f1", "exact")], actions=["mark"],
                          size=128))]
        )
        result = compile_program(program, SMALL)
        stage_map = result.stage_map()
        assert stage_map[0] == ["big"]
        assert stage_map[1] == ["big"]
