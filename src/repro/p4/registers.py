"""Stateful register arrays.

Register arrays are the stateful memory of RMT pipelines.  The paper's
examples use them for Count-Min Sketches (Ex. 1, Failure Detection) and a
Bloom Filter (Sourceguard).  Their size is one of the two knobs phase 3
(§3.3) resizes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import P4SemanticsError
from repro.p4.types import KeepsPinsLocal, bytes_for_bits


@dataclass(frozen=True)
class RegisterArray(KeepsPinsLocal):
    """A register array of ``size`` cells, each ``width`` bits wide."""

    name: str
    width: int
    size: int

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise P4SemanticsError(
                f"register {self.name!r}: width must be positive"
            )
        if self.size <= 0:
            raise P4SemanticsError(
                f"register {self.name!r}: size must be positive"
            )

    @property
    def memory_bytes(self) -> int:
        """Total SRAM footprint in bytes (cells are byte-aligned)."""
        return bytes_for_bits(self.width) * self.size

    def resized(self, new_size: int) -> "RegisterArray":
        """Return a copy with a different cell count (phase 3 resizing)."""
        return RegisterArray(name=self.name, width=self.width, size=new_size)

    def __str__(self) -> str:
        return f"register {self.name} {{ width: {self.width}; size: {self.size}; }}"
