"""End-to-end equivalence checking: original switch vs optimized switch
plus controller.

The paper's phases 2 and 3 must preserve behaviour exactly on the trace;
phase 4 changes *where* packets are processed, not *how*: a redirected
packet must receive the same verdict from the optimized switch and the
controller together that the original data plane would have given it.
:func:`check_result` is that contract as one predicate over a run's
result; the two ``compare_*`` functions are its halves.

Behaviour is bytes: a packet both sides forward (or punt) must also
leave with the same bytes, so a rewrite that changes a value the
program writes into a packet is a mismatch even when every forwarding
decision holds (:func:`same_packet`).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import List, Sequence

from repro.controller.offload_runtime import OffloadController
from repro.core.phase_offload import SegmentCandidate
from repro.core.pipeline import P2GOResult
from repro.p4.program import Program
from repro.sim.runtime import RuntimeConfig
from repro.sim.switch import BehavioralSwitch, SwitchResult
from repro.traffic.generators import TracePacket


@dataclass
class EquivalenceReport:
    """Outcome of a behavioural comparison over a trace."""

    total: int
    mismatches: List[int] = dc_field(default_factory=list)
    redirected: int = 0

    @property
    def equivalent(self) -> bool:
        return not self.mismatches


def same_packet(a: SwitchResult, b: SwitchResult) -> bool:
    """The same forwarding decision and, unless both drop the packet,
    the same output bytes."""
    return a.forwarding_decision() == b.forwarding_decision() and (
        a.dropped or a.output_bytes == b.output_bytes
    )


def compare_behavior(
    program_a: Program,
    config_a: RuntimeConfig,
    program_b: Program,
    config_b: RuntimeConfig,
    trace: Sequence[TracePacket],
) -> EquivalenceReport:
    """Strict per-packet comparison (phases 2/3): decision and bytes."""
    switch_a = BehavioralSwitch(program_a, config_a)
    switch_b = BehavioralSwitch(program_b, config_b)
    results_a = switch_a.process_many(trace)
    results_b = switch_b.process_many(trace)
    report = EquivalenceReport(total=len(results_a))
    for ra, rb in zip(results_a, results_b):
        if not same_packet(ra, rb):
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

    For each packet the optimized switch redirects, the pair's verdict
    must match the original's: dropped when *either* side drops it —
    tables outside the segment still run on the switch, and a drop there
    is part of the pair's verdict — and notified when the controller
    notifies.  Otherwise the switch's own decision and bytes must
    match.
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
            if (
                (r_opt.dropped or r_ctl.dropped) != r_orig.dropped
                or r_ctl.to_controller != r_orig.to_controller
            ):
                report.mismatches.append(r_orig.index)
        elif not same_packet(r_opt, r_orig):
            report.mismatches.append(r_orig.index)
    return report


def check_result(
    result: P2GOResult,
    config: RuntimeConfig,
    trace: Sequence[TracePacket],
) -> EquivalenceReport:
    """The one oracle for a run: does ``result`` behave, over ``trace``,
    like its original program under the original ``config``?

    Strict :func:`compare_behavior` when phase 4 offloaded nothing;
    otherwise :func:`compare_with_offload`, the controller running the
    recorded segment against ``result.original_program``.
    """
    sides = (
        result.original_program,
        config,
        result.optimized_program,
        result.final_config,
    )
    if result.offloaded is None:
        return compare_behavior(*sides, trace)
    return compare_with_offload(*sides, result.offloaded.segment, trace)
