"""Events emitted by the behavioural switch.

Both event types are frozen dataclasses on purpose: a
:class:`~repro.sim.switch.SwitchResult`'s step stream and the
controller queue are handed to profilers, monitors and equivalence
checks alike, so a mutable event would let one consumer corrupt the
history another one reads.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ControllerPacket:
    """A packet redirected to the controller (CPU port)."""

    index: int
    reason: int
    data: bytes


@dataclass(frozen=True)
class ExecutionStep:
    """One table application during a packet's traversal."""

    table: str
    action: str
    hit: bool
