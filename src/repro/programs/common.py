"""Shared scaffolding for the example programs.

Each bundled program is defined once, by its DSL source beside its module
(``cgnat.p4`` next to ``cgnat.py``); :func:`source_program` parses it.  The
module adds what the source cannot say: the runtime configuration, the
traffic, and the target the program is evaluated on.
"""

from __future__ import annotations

from pathlib import Path

from repro.p4 import Program
from repro.p4.dsl import parse_program
from repro.target.model import TargetModel

#: Small-block target used by the evaluation examples.  Scaled-down block
#: sizes (256 B SRAM / 64 B TCAM) keep register arrays at laptop-friendly
#: sizes while preserving every packing effect the paper relies on: the
#: FIB spans two stages, two sketch rows exceed one stage, and single-digit
#: percentage register trims free a stage.
EXAMPLE_TARGET = TargetModel(
    name="rmt-example",
    num_stages=12,
    sram_blocks_per_stage=16,
    tcam_blocks_per_stage=8,
    sram_block_bytes=256,
    tcam_block_bytes=64,
    max_tables_per_stage=8,
)


def source_program(name: str) -> Program:
    """Parse the bundled program ``name`` from its ``.p4`` source."""
    source = Path(__file__).with_name(f"{name}.p4").read_text()
    return parse_program(source, name)
