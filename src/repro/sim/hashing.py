"""Deterministic hash functions for data-plane hash primitives.

RMT targets provide a small family of hardware hash units (CRC variants).
We model them as seeded CRC32/FNV functions over the concatenated
byte-serialized input fields.  Determinism matters twice over: profiles must
be reproducible run-to-run, and phase 3's verification (§3.3) relies on the
*same* trace hashing the *same* way before and after a resize — only the
modulus changes.
"""

from __future__ import annotations

import zlib
from typing import Callable, Dict, Sequence, Tuple

from repro.exceptions import SimulationError
from repro.p4.types import bytes_for_bits


def _serialize_inputs(values: Sequence[Tuple[int, int]]) -> bytes:
    """Concatenate (value, width_bits) pairs into bytes, each byte-aligned."""
    chunks = []
    for value, width in values:
        chunks.append(value.to_bytes(bytes_for_bits(width), "big"))
    return b"".join(chunks)


def _crc32_with_seed(seed: int) -> Callable[[bytes], int]:
    def fn(data: bytes) -> int:
        return zlib.crc32(seed.to_bytes(4, "big") + data) & 0xFFFFFFFF

    return fn


def _fnv1a(data: bytes) -> int:
    value = 0xCBF29CE484222325
    for byte in data:
        value ^= byte
        value = (value * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return value & 0xFFFFFFFF


def _identity(data: bytes) -> int:
    return int.from_bytes(data[-8:], "big") if data else 0


#: Each CRC32 variant's seed, hashed as four big-endian bytes before the data.
CRC_SEEDS: Dict[str, int] = {
    "crc32": 0, "crc32_a": 0xA5A5A5A5, "crc32_b": 0x5A5A5A5A,
    "crc32_c": 0x3C3C3C3C, "crc32_d": 0xC3C3C3C3,
}


def crc_start(seed: int) -> int:
    """``zlib.crc32(data, crc_start(seed))`` is that variant's hash."""
    return zlib.crc32(seed.to_bytes(4, "big"))


#: Hash algorithm registry, keyed by the name used in HashFields primitives.
ALGORITHMS: Dict[str, Callable[[bytes], int]] = {
    **{name: _crc32_with_seed(seed) for name, seed in CRC_SEEDS.items()},
    "fnv1a": _fnv1a,
    "identity": _identity,
}


def compute_hash(
    algorithm: str,
    values: Sequence[Tuple[int, int]],
    modulo: int,
) -> int:
    """Hash ``values`` ((value, width) pairs) and reduce modulo ``modulo``."""
    fn = ALGORITHMS.get(algorithm)
    if fn is None:
        raise SimulationError(
            f"unknown hash algorithm {algorithm!r}; "
            f"known: {sorted(ALGORITHMS)}"
        )
    if modulo <= 0:
        raise SimulationError(f"hash modulo must be positive, got {modulo}")
    return fn(_serialize_inputs(values)) % modulo
