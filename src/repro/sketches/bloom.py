"""Bloom filter — software implementation.

Same hash family and indexing as the bundled programs' data-plane Bloom
filters (``sourceguard.p4``'s ``sg_array*``), so that a DHCP-snooping
database installed by the controller (Sourceguard, §4) sets exactly the
bits the data plane later checks.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.exceptions import ReproError
from repro.sim.hashing import compute_hash

Key = Tuple[Tuple[int, int], ...]

DEFAULT_ALGORITHMS = ("crc32_a", "crc32_b")


class BloomFilter:
    """A k-row, one-array-per-hash Bloom filter (the data-plane layout).

    Each hash function owns its own register array, matching how the paper's
    Sourceguard implements the filter "with two hash functions using
    register arrays" — and letting phase 3 resize a *single* array.
    """

    def __init__(
        self,
        sizes: Sequence[int],
        algorithms: Sequence[str] = DEFAULT_ALGORITHMS,
    ):
        if not sizes:
            raise ReproError("Bloom filter needs at least one array")
        if len(sizes) != len(algorithms):
            raise ReproError(
                f"got {len(sizes)} array sizes for {len(algorithms)} hashes"
            )
        if any(s <= 0 for s in sizes):
            raise ReproError("Bloom filter array sizes must be positive")
        self.sizes = tuple(sizes)
        self.algorithms = tuple(algorithms)
        self.arrays: List[List[int]] = [[0] * s for s in sizes]

    def _indices(self, key: Key) -> List[int]:
        return [
            compute_hash(algo, key, size)
            for algo, size in zip(self.algorithms, self.sizes)
        ]

    def add(self, key: Key) -> None:
        for array, index in zip(self.arrays, self._indices(key)):
            array[index] = 1

    def contains(self, key: Key) -> bool:
        """True if possibly present (no false negatives)."""
        return all(
            array[index]
            for array, index in zip(self.arrays, self._indices(key))
        )

    def reset(self) -> None:
        for array in self.arrays:
            for i in range(len(array)):
                array[i] = 0

    def fill_ratio(self) -> float:
        total = sum(self.sizes)
        ones = sum(sum(array) for array in self.arrays)
        return ones / total if total else 0.0
