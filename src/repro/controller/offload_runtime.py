"""Controller-side execution of offloaded code segments.

Phase 4 replaces a segment with a redirect table and "informs the
programmer of the removed tables that need to be implemented elsewhere"
(§3.4).  This module *is* that elsewhere: it derives a segment program
(the original program with only the offloaded subtree as its ingress) and
interprets redirected packets against controller-side state, so the
switch + controller combination reproduces the original data-plane
behaviour end to end.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional

from repro.core.phase_offload import SegmentCandidate
from repro.exceptions import ControllerError
from repro.p4.control import ControlNode, Seq
from repro.p4.program import Program
from repro.sim.runtime import RuntimeConfig
from repro.sim.switch import BehavioralSwitch, SwitchResult


def segment_program(
    original: Program, subtree: ControlNode, name: Optional[str] = None
) -> Program:
    """The original program restricted to one control subtree.

    Keeps the full parser, header, action, register, and table space (the
    controller has the source program) but only executes the segment.
    """
    # Offloaded segments come from the ingress; the original egress stays
    # on the switch.
    return replace(
        original,
        name=name or f"{original.name}__controller_segment",
        ingress=subtree,
        egress=Seq([]),
    )


@dataclass
class ControllerStats:
    """Load accounting for the software path."""

    packets_processed: int = 0
    packets_dropped: int = 0
    notifications: int = 0


class OffloadController:
    """Runs an offloaded segment in software.

    The controller owns its own register state (the data-plane state of
    the segment moved with it) and processes every redirected packet
    through the same semantics the switch used — §3.4's behaviour
    preservation, demonstrated rather than assumed.
    """

    def __init__(
        self,
        original: Program,
        segment: SegmentCandidate,
        config: RuntimeConfig,
        notification_reason: Optional[int] = None,
    ):
        self.segment_tables = tuple(segment.tables)
        program = segment_program(original, segment.subtree)
        restricted = config.restricted_to(self.segment_tables)
        self._switch = BehavioralSwitch(program, restricted)
        self.stats = ControllerStats()
        self._notification_reason = notification_reason

    def handle_packet(self, data: bytes, ingress_port: int = 0) -> SwitchResult:
        """Process one redirected packet; returns the software verdict."""
        try:
            result = self._switch.process(data, ingress_port)
        except Exception as exc:  # pragma: no cover - defensive
            raise ControllerError(
                f"controller failed to process packet: {exc}"
            ) from exc
        self.stats.packets_processed += 1
        if result.dropped:
            self.stats.packets_dropped += 1
        if result.to_controller and (
            self._notification_reason is None
            or result.controller_reason == self._notification_reason
        ):
            self.stats.notifications += 1
        return result

    def reset(self) -> None:
        self._switch.reset_state()
        self.stats = ControllerStats()

    def register_snapshot(self) -> Dict[str, List[int]]:
        return self._switch.state.snapshot()
