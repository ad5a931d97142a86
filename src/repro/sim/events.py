"""Events emitted by the behavioural switch.

The event type is immutable on purpose: a
:class:`~repro.sim.switch.SwitchResult`'s step stream is handed to
profilers, monitors and equivalence checks alike, so a mutable event
would let one consumer corrupt the history another one reads.
:class:`ExecutionStep` is a named tuple rather than a frozen dataclass
because the switch builds one per table application and profilers key
on a packet's whole step log: a tuple is cheaper to build and hashes in
C.
"""

from __future__ import annotations

from typing import NamedTuple


class ExecutionStep(NamedTuple):
    """One table application during a packet's traversal."""

    table: str
    action: str
    hit: bool
