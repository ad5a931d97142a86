"""Stateful switch memory: register arrays.

State lives outside the per-packet pipeline so that it persists across
packets (sketches and Bloom filters accumulate) but can be snapshotted and
reset between profiling runs — P2GO replays the same trace against multiple
program variants and needs each replay to start from pristine state.
The execution plan binds each array once and leaves to
:meth:`SwitchState.read` / :meth:`SwitchState.write` only the accesses
they reject, so :meth:`reset` zeroes an array in place.
"""

from __future__ import annotations

from typing import Dict, List

from repro.exceptions import SimulationError
from repro.p4.program import Program
from repro.p4.types import truncate


class SwitchState:
    """All register arrays of one switch instance."""

    def __init__(self, program: Program):
        self._widths: Dict[str, int] = {}
        self._sizes: Dict[str, int] = {}
        self._arrays: Dict[str, List[int]] = {}
        for reg in program.registers.values():
            self._widths[reg.name] = reg.width
            self._sizes[reg.name] = reg.size
            self._arrays[reg.name] = [0] * reg.size

    def register_size(self, name: str) -> int:
        if name not in self._sizes:
            raise SimulationError(f"unknown register {name!r}")
        return self._sizes[name]

    def read(self, name: str, index: int) -> int:
        array = self._arrays.get(name)
        if array is None:
            raise SimulationError(f"unknown register {name!r}")
        if not 0 <= index < len(array):
            raise SimulationError(
                f"register {name!r}: index {index} out of range "
                f"[0, {len(array)})"
            )
        return array[index]

    def write(self, name: str, index: int, value: int) -> None:
        array = self._arrays.get(name)
        if array is None:
            raise SimulationError(f"unknown register {name!r}")
        if not 0 <= index < len(array):
            raise SimulationError(
                f"register {name!r}: index {index} out of range "
                f"[0, {len(array)})"
            )
        array[index] = truncate(value, self._widths[name])

    def reset(self) -> None:
        """Zero every register array in place (fresh profiling run)."""
        for array in self._arrays.values():
            array[:] = [0] * len(array)

    def snapshot(self) -> Dict[str, List[int]]:
        """Deep copy of all arrays (for equivalence testing)."""
        return {name: list(array) for name, array in self._arrays.items()}

    def nonzero_cells(self, name: str) -> int:
        """Number of non-zero cells (occupancy diagnostics)."""
        array = self._arrays.get(name)
        if array is None:
            raise SimulationError(f"unknown register {name!r}")
        return sum(1 for v in array if v)
