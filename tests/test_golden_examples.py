"""Golden compile outcomes for the bundled example programs.

Every bundled ``src/repro/programs/*.p4`` source is parsed by the DSL
front end and compiled against two targets: the generous
:data:`DEFAULT_TARGET` and a deliberately small 4-stage target with the
example-scale per-stage geometry.  The pinned ``stages_used`` /
``fits`` pairs are the contract future allocator changes must either
preserve or consciously re-pin.
"""

from pathlib import Path

import pytest

from repro.exceptions import AllocationError
from repro.p4.dsl import parse_program
from repro.programs import example_firewall
from repro.target import DEFAULT_TARGET, TargetModel, compile_program

SOURCES = Path(__file__).parent.parent / "src" / "repro" / "programs"

#: Example-scale per-stage geometry (matches EXAMPLE_TARGET) but only 4
#: physical stages, so the bigger programs overflow into virtual stages.
SMALL_TARGET = TargetModel(
    name="golden-small",
    num_stages=4,
    sram_blocks_per_stage=16,
    tcam_blocks_per_stage=8,
    sram_block_bytes=256,
    tcam_block_bytes=64,
    max_tables_per_stage=8,
)

#: program -> (stages on DEFAULT_TARGET, fits, stages on SMALL_TARGET, fits)
GOLDEN = {
    "cgnat": (2, True, 2, True),
    "ddos_mitigation": (4, True, 5, False),
    "enterprise": (5, True, 11, False),
    "example_firewall": (3, True, 8, False),
    "failure_detection": (4, True, 4, True),
    "load_balancer": (2, True, 2, True),
    "nat_gre": (4, True, 4, True),
    "sourceguard": (2, True, 5, False),
    "telemetry": (2, True, 5, False),
}


def load(name):
    return parse_program((SOURCES / f"{name}.p4").read_text(), name)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_default_target_outcome(name):
    stages, fits, _small_stages, _small_fits = GOLDEN[name]
    result = compile_program(load(name), DEFAULT_TARGET)
    assert result.stages_used == stages
    assert result.fits is fits


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_small_target_outcome(name):
    _stages, _fits, small_stages, small_fits = GOLDEN[name]
    result = compile_program(load(name), SMALL_TARGET)
    assert result.stages_used == small_stages
    assert result.fits is small_fits
    # Virtual stages (§2.2): overflow is reported, never raised.
    if not small_fits:
        assert result.stages_used > SMALL_TARGET.num_stages


def test_every_example_source_is_pinned():
    on_disk = {p.stem for p in SOURCES.glob("*.p4")}
    assert on_disk == set(GOLDEN), (
        "src/repro/programs/ and GOLDEN drifted apart — add the new "
        "program's golden outcome"
    )


def test_unsplittable_register_is_a_hard_error():
    """Shrinking the SRAM *blocks* (not just stages) makes sourceguard's
    4 KB Bloom arrays unplaceable — that is an AllocationError, not a
    fits=False outcome, because no number of stages can host them."""
    tiny_blocks = TargetModel(
        name="golden-tiny-blocks",
        num_stages=32,
        sram_blocks_per_stage=8,
        tcam_blocks_per_stage=4,
        sram_block_bytes=256,
        tcam_block_bytes=64,
        max_tables_per_stage=8,
    )
    with pytest.raises(AllocationError):
        compile_program(load("sourceguard"), tiny_blocks)


def test_firewall_stage_map_respects_tdg():
    """Acceptance check: the compiled firewall's stage map honours every
    edge of the dependency graph."""
    result = compile_program(example_firewall.build_program(), DEFAULT_TARGET)
    placements = result.allocation.placements
    for dep in result.dependency_graph.edges():
        src, dst = placements[dep.src], placements[dep.dst]
        if dep.kind.aligns_to_first_stage:
            assert dst.first_stage >= src.first_stage
        else:
            assert (
                dst.first_stage >= src.last_stage + dep.min_stage_separation
            )
