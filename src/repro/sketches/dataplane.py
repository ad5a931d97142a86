"""Data-plane sketches: the controller's handle on an in-switch Bloom filter.

The bundled programs declare their sketches in P4 source: one register
array per hash function, one match-action table per array (``Sketch_1``,
``Sketch_2``), and for a Count-Min Sketch a combining table
(``Sketch_Min``).  Hash computations use ``RegisterSize`` as their
modulus, so resizing an array during phase 3 automatically changes the
index distribution — the mechanism behind the paper's observation that
shrinking ``Sketch_1`` causes extra collisions and perturbs
``DNS_Drop``'s hit rate (§2.2, phase 3).

A data-plane Bloom filter only *checks* membership; the controller
fills its arrays.  :class:`BloomFragment` names the arrays, hashes and
key of one such filter, and :func:`preload_bloom_filter` installs a
database into them through a runtime configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.p4.expressions import FieldRef
from repro.sim.runtime import RuntimeConfig


@dataclass(frozen=True)
class BloomFragment:
    """Handle to a data-plane Bloom filter (check-only)."""

    name: str
    check_tables: Tuple[str, ...]
    registers: Tuple[str, ...]
    bit_fields: Tuple[FieldRef, ...]
    algorithms: Tuple[str, ...]
    key_fields: Tuple[FieldRef, ...]


def preload_bloom_filter(
    config: RuntimeConfig,
    fragment: BloomFragment,
    keys: Sequence[Tuple[Tuple[int, int], ...]],
) -> RuntimeConfig:
    """Install database entries into a data-plane Bloom filter.

    Each key is ((value, width_bits), ...) matching the fragment's hash
    inputs.  Preloads are hash-addressed so a controller re-install after a
    phase-3 resize lands on the right cells.
    """
    for key in keys:
        for register, algorithm in zip(
            fragment.registers, fragment.algorithms
        ):
            config.init_register_hashed(register, algorithm, key, 1)
    return config
