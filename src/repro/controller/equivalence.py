"""End-to-end equivalence checking: original switch vs optimized switch
plus controller.

The paper's phases 2 and 3 must preserve behaviour exactly on the trace;
phase 4 changes *where* packets are processed, not *how*: a redirected
packet must receive the same verdict from the controller that the original
data plane would have given it.  These checkers turn that contract into a
testable predicate.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import List, Sequence, Tuple

from repro.controller.offload_runtime import OffloadController
from repro.core.phase_offload import SegmentCandidate
from repro.p4.program import Program
from repro.sim.runtime import RuntimeConfig
from repro.sim.switch import BehavioralSwitch
from repro.traffic.generators import TracePacket

Decision = Tuple[int, bool, bool]  # (egress_port, dropped, to_controller)


@dataclass
class EquivalenceReport:
    """Outcome of a behavioural comparison over a trace."""

    total: int
    mismatches: List[int] = dc_field(default_factory=list)
    redirected: int = 0

    @property
    def equivalent(self) -> bool:
        return not self.mismatches


def compare_behavior(
    program_a: Program,
    config_a: RuntimeConfig,
    program_b: Program,
    config_b: RuntimeConfig,
    trace: Sequence[TracePacket],
) -> EquivalenceReport:
    """Strict per-packet forwarding-decision comparison (phases 2/3)."""
    switch_a = BehavioralSwitch(program_a, config_a)
    switch_b = BehavioralSwitch(program_b, config_b)
    results_a = switch_a.process_trace(trace)
    results_b = switch_b.process_trace(trace)
    report = EquivalenceReport(total=len(results_a))
    for ra, rb in zip(results_a, results_b):
        if ra.forwarding_decision() != rb.forwarding_decision():
            report.mismatches.append(ra.index)
    return report


def compare_with_offload(
    original: Program,
    original_config: RuntimeConfig,
    optimized: Program,
    optimized_config: RuntimeConfig,
    segment: SegmentCandidate,
    trace: Sequence[TracePacket],
) -> EquivalenceReport:
    """Phase-4 contract: the optimized switch + controller combination
    gives every packet the verdict the original switch gave it.

    For each packet: if the optimized switch redirects it, the
    controller's verdict (drop / notify) must match the original data
    plane's; otherwise the optimized switch's own decision must match.
    """
    switch_orig = BehavioralSwitch(original, original_config)
    switch_opt = BehavioralSwitch(optimized, optimized_config)
    controller = OffloadController(original, segment, original_config)

    report = EquivalenceReport(total=0)
    for entry in trace:
        data, port = (
            entry if isinstance(entry, tuple) else (entry, 0)
        )
        r_orig = switch_orig.process(data, port)
        r_opt = switch_opt.process(data, port)
        report.total += 1
        if r_opt.to_controller:
            report.redirected += 1
            r_ctl = controller.handle_packet(data, port)
            # The original's verdict on this packet must be reproduced by
            # the controller: same drop decision, same notification.
            if r_ctl.dropped != r_orig.dropped:
                report.mismatches.append(r_orig.index)
                continue
            if r_ctl.to_controller != r_orig.to_controller:
                report.mismatches.append(r_orig.index)
        else:
            if r_opt.forwarding_decision() != r_orig.forwarding_decision():
                report.mismatches.append(r_orig.index)
    return report
