"""Count-Min Sketch — software implementation.

Matches the bundled programs' data-plane CMS (``example_firewall.p4``'s
``dns_cms_row*``) cell-for-cell: same hash family
(:mod:`repro.sim.hashing`), same modulus (the row size), so a controller
running this class over the same packets reaches the same counts as the
switch — the equivalence the offload phase (§3.4) relies on.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.exceptions import ReproError
from repro.sim.hashing import compute_hash

#: Default hash algorithms per row, in row order.
DEFAULT_ALGORITHMS = ("crc32_a", "crc32_b", "crc32_c", "crc32_d")

Key = Tuple[Tuple[int, int], ...]  # ((value, width_bits), ...)


class CountMinSketch:
    """A depth×width CMS over integer-tuple keys."""

    def __init__(
        self,
        width: int,
        depth: int = 2,
        algorithms: Sequence[str] = DEFAULT_ALGORITHMS,
        cell_bits: int = 32,
    ):
        if width <= 0:
            raise ReproError("CMS width must be positive")
        if depth <= 0:
            raise ReproError("CMS depth must be positive")
        if depth > len(algorithms):
            raise ReproError(
                f"CMS depth {depth} exceeds available hash algorithms "
                f"({len(algorithms)})"
            )
        self.width = width
        self.depth = depth
        self.algorithms = tuple(algorithms[:depth])
        self.cell_max = (1 << cell_bits) - 1
        self.rows: List[List[int]] = [[0] * width for _ in range(depth)]

    def _indices(self, key: Key) -> List[int]:
        return [
            compute_hash(algo, key, self.width) for algo in self.algorithms
        ]

    def update(self, key: Key, amount: int = 1) -> int:
        """Add ``amount`` and return the post-update estimate."""
        estimate = None
        for row, index in zip(self.rows, self._indices(key)):
            row[index] = min(row[index] + amount, self.cell_max)
            estimate = (
                row[index] if estimate is None else min(estimate, row[index])
            )
        return estimate if estimate is not None else 0

    def estimate(self, key: Key) -> int:
        """Point query: min over rows (never under-counts)."""
        return min(
            row[index] for row, index in zip(self.rows, self._indices(key))
        )

    def reset(self) -> None:
        for row in self.rows:
            for i in range(len(row)):
                row[i] = 0

    def total_memory_bytes(self, cell_bytes: int = 4) -> int:
        return self.depth * self.width * cell_bytes
