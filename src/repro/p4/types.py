"""Primitive value types for the P4 intermediate representation.

P4 values are fixed-width unsigned integers.  This module provides the small
amount of arithmetic the IR and the simulator need: masking to a bit width,
wrap-around addition/subtraction, and pretty formatting — plus the one
way derived state is pinned on a frozen IR value.
"""

from __future__ import annotations

from typing import Callable, TypeVar

from repro.exceptions import P4SemanticsError

T = TypeVar("T")
V = TypeVar("V")

#: Egress port value that marks a packet for dropping.  Mirrors the Tofino
#: convention of a reserved "drop" port; the paper's running example relies on
#: drop actions writing this special value (it is what makes the two ACL
#: tables action-dependent).
DROP_PORT = 511

#: Reserved egress port for packets redirected to the controller (CPU port).
CPU_PORT = 510


def mask(width: int) -> int:
    """Return the all-ones mask for a field of ``width`` bits."""
    if width <= 0:
        raise P4SemanticsError(f"field width must be positive, got {width}")
    return (1 << width) - 1


def truncate(value: int, width: int) -> int:
    """Truncate ``value`` to ``width`` bits (P4 wrap-around semantics)."""
    return value & mask(width)


def wrap_add(a: int, b: int, width: int) -> int:
    """Add two ``width``-bit values with wrap-around."""
    return (a + b) & mask(width)


def wrap_sub(a: int, b: int, width: int) -> int:
    """Subtract ``b`` from ``a`` with ``width``-bit wrap-around."""
    return (a - b) & mask(width)


def bytes_for_bits(bits: int) -> int:
    """Number of bytes needed to store ``bits`` bits."""
    if bits < 0:
        raise P4SemanticsError(f"bit count must be non-negative, got {bits}")
    return (bits + 7) // 8


# ----------------------------------------------------------------------
# Derived state pinned on frozen IR values (DESIGN.md §16)

#: Pins that stay with the object in this process — the packet codec
#: ``repro.packets.get_codec`` pins on a header type, the DSL text
#: ``repro.p4.dsl.print_program`` pins on a leaf or a control root (and a
#: table's text without its size, ``_shape_text``), and an action's
#: field and register accesses (``_access``): a pickle or a deep copy of
#: the value never carries them.
LOCAL_PINS = ("_codec", "_text", "_shape_text", "_access")


def pinned(value, name: str, compute: Callable[[T], V]) -> V:
    """``compute(value)``, computed on the first ask and pinned on the
    frozen ``value`` as attribute ``name``.  A pin is derived state, not
    part of the value: dataclass equality never sees it.  Two threads
    may compute one pin at once; either result is as good as the other."""
    found = value.__dict__.get(name)
    if found is None:
        found = compute(value)
        object.__setattr__(value, name, found)
    return found


class KeepsPinsLocal:
    """Mixin of the frozen IR values that may carry a :data:`LOCAL_PINS`
    pin: pickles and deep copies drop it.  Values are shared between a
    simulated original and every candidate derived from it, so a pin
    that travelled would land in every worker spec."""

    def __getstate__(self):
        state = self.__dict__.copy()
        for name in LOCAL_PINS:
            state.pop(name, None)
        return state
