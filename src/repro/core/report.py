"""Human-readable optimization reports.

Renders a :class:`~repro.core.pipeline.P2GOResult` the way the paper's
workflow expects: the stage progression per phase (Table 2's shape), every
decision with its evidence (:func:`render_decision`, the one place a
decision becomes text), and the changes awaiting the programmer's
judgement.  :func:`render_fleet_report` does the same for a fleet run
(:mod:`repro.core.fleet`): the per-switch roll-up plus the fabric-level
numbers — stages reclaimed, cross-switch probe reuse, lease contention,
wall clock against running the switches independently.
:func:`render_explore_report` renders a design-space sweep
(:mod:`repro.explore`): per-program Pareto frontiers, fit breakpoints,
the cross-point reuse the shared store bought and lease contention.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.core.fanout import lease_contention
from repro.core.observations import Decision, Phase, Reason, Verdict
from repro.core.pipeline import P2GOResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (fleet -> report)
    from repro.core.fleet import FleetResult
    from repro.core.serve import ServeResult
    from repro.explore.explorer import ExploreResult


def stage_table(result: P2GOResult) -> str:
    """Render the per-phase stage map (the paper's Table 2)."""
    lines: List[str] = []
    for outcome in result.outcomes:
        cells = []
        for stage_tables in outcome.stage_map:
            cells.append("+".join(stage_tables) if stage_tables else "-")
        label = {
            "PROFILING": "Initial Program",
            "REMOVE_DEPENDENCIES": "Removing Deps.",
            "REDUCE_MEMORY": "Reducing Memory",
            "OFFLOAD_CODE": "Offloading Code",
        }.get(outcome.phase.name, outcome.phase.name)
        lines.append(
            f"{label:<17} ({outcome.stages} stages): "
            + " | ".join(cells)
        )
    return "\n".join(lines)


#: The report's text for each reason a candidate was turned down.
_REASON_TEXT = {
    Reason.MANIFESTS:
        "a conflicting action pair co-applied on a packet of the trace",
    Reason.HIT_COAPPLIED:
        "a packet hit the source table while the consumer was applied",
    Reason.TABLES_NOT_FOUND:
        "the two tables are not both applied in the ingress",
    Reason.NOT_SIBLINGS:
        "the two tables are not siblings in one control sequence",
    Reason.NOT_RELOCATABLE:
        "the consumer's apply is not a relocatable guarded unit",
    Reason.NOT_ADJACENT:
        "the two tables are not adjacent; relocating would reorder logic",
    Reason.GUARDS_NOT_VALIDITY:
        "a guard is not a plain validity test; safety is unprovable",
    Reason.GUARD_NOT_IMPLIED:
        "the consumer's guard does not imply the source's",
    Reason.NO_STAGE_SAVED: "the change saves fewer stages than asked for",
    Reason.BEHAVIOUR_CHANGED:
        "the reduction changed the program's behaviour on the trace",
    Reason.ENTRIES_DO_NOT_FIT:
        "the runtime config installs more than the reduced size holds",
    Reason.OVER_BUDGET:
        "the segment redirects more than the controller-load budget",
    Reason.OUTRANKED: "another qualifying segment redirects less traffic",
}


def render_decision(decision: Decision) -> str:
    """One decision as the report prints it: a headline, what it asks
    the programmer to verify (or why it was turned down, or why its
    licence broke), and the numbers behind it."""
    phase, candidate = decision.phase, decision.candidate
    rejected = decision.verdict is Verdict.REJECTED
    evidence: List[str] = []
    if phase is Phase.REMOVE_DEPENDENCIES:
        pair = f"dependency {candidate.src} -> {candidate.dst}"
        title = f"kept {pair}" if rejected else f"removed {pair}"
        causes = ", ".join(
            f"{c.src_action}/{c.dst_action or '<match>'} on "
            f"{{{', '.join(sorted(c.fields or c.registers))}}}"
            for c in candidate.causes
            if c.kind.min_stage_separation
        )
        details = (
            f"{candidate.dst} is now applied only if {candidate.src} "
            "misses; verify that no real packet can match both. Evidence: "
            "no packet in the trace exercised the conflicting action "
            f"pairs ({causes})"
        )
        evidence.append(f"kind: {candidate.kind.value}")
    elif phase is Phase.REDUCE_MEMORY:
        sizes = f"{candidate.original_size} -> {candidate.new_size}"
        name = f"{candidate.kind.value} {candidate.name}"
        if rejected:
            title = f"discarded resize of {name} ({sizes})"
        else:
            title = (
                f"resized {name}: {sizes} "
                f"(-{candidate.reduction_fraction:.1%})"
            )
        details = (
            "the reduced program's profile is identical on the input "
            "trace; verify that future rules/state still fit the "
            "smaller allocation"
        )
        evidence.append(f"hit_rate: {candidate.hit_rate:.2%}")
    else:
        segment = "{" + ", ".join(candidate.segment.tables) + "}"
        if rejected:
            title = f"kept segment {segment} in the data plane"
        else:
            title = f"offloaded segment {segment} to the controller"
        details = (
            "these tables must now be implemented at the controller; "
            f"{candidate.redirect_fraction:.2%} of the "
            "trace is redirected and "
            f"{decision.stages_before - decision.stages_after} stage(s) "
            "are freed. Keep the segment in the data plane if it matters "
            "in critical situations the trace does not cover."
        )
        evidence.append(
            f"boundary_guard: {candidate.segment.boundary_guard or 'none'}"
        )
        evidence.append(
            f"redirect_fraction: {candidate.redirect_fraction:.2%}"
        )
    if decision.reason is not None:  # a rejection or violation says why
        details = "; ".join(
            (_REASON_TEXT[decision.reason],) + decision.evidence
        )
    if decision.stages_before is not None:
        evidence.append(f"stages_before: {decision.stages_before}")
        evidence.append(f"stages_after: {decision.stages_after}")
    lines = [
        f"[phase {phase.value}:{phase.name.lower()}] "
        f"{decision.verdict.value.upper()}: {title}",
        f"  {details}",
    ]
    lines.extend(f"  - {item}" for item in sorted(evidence))
    return "\n".join(lines)


def render_report(result: P2GOResult) -> str:
    """The full optimization report."""
    from repro.target.phv import compute_phv_usage

    phv_before = compute_phv_usage(result.original_program)
    phv_after = compute_phv_usage(result.optimized_program)
    profile = result.initial_profile
    lines: List[str] = [
        "=" * 72,
        f"P2GO optimization report — {result.original_program.name}",
        "=" * 72,
        "",
        f"stages: {result.stages_before} -> {result.stages_after}",
        f"PHV:    {phv_before.total_bits} -> {phv_after.total_bits} bits "
        f"(of {phv_after.budget_bits})",
        "",
        stage_table(result),
        "",
        f"profiled {profile.total_packets} packets, "
        f"{len(profile.nonexclusive_sets)} distinct non-exclusive action "
        "sets; per-table hit rates: "
        + ", ".join(
            f"{t}={profile.hit_rate(t):.1%}"
            for t in result.original_program.tables_in_control_order()
        ),
        "",
    ]
    if result.profiling_perf is not None:
        lines.append("profiling engine:")
        lines.extend(
            "  " + perf_line
            for perf_line in result.profiling_perf.render().splitlines()
        )
        lines.append("")
    phase_perf = [
        o for o in result.outcomes[1:] if o.profiling_perf is not None
    ]
    if phase_perf:
        lines.append("per-phase re-profiling cost:")
        lines.extend(
            f"  {outcome.phase.name.lower():<20} "
            f"{outcome.profiling_perf.packets} packets replayed"
            for outcome in phase_perf
        )
        lines.append("")
    if result.session_counters is not None:
        lines.append(
            "compile/profile session: " + result.session_counters.render()
        )
        lines.append("")
    if result.store_stats is not None:
        stats = result.store_stats
        store_counters = stats["counters"]
        lines.append(
            f"persistent store: {stats['root']} — "
            f"{stats['compile_entries']} compile + "
            f"{stats['profile_entries']} profile + "
            f"{stats['analysis_entries']} analysis entries, "
            f"{stats['total_bytes']:,} bytes "
            f"({store_counters['writes']} writes, "
            f"{store_counters['evictions']} evictions this run)"
        )
        if store_counters["quarantined"]:
            lines.append(
                f"  note: {store_counters['quarantined']} corrupt "
                "store entries quarantined (served as cold misses)"
            )
        if store_counters["errors"]:
            lines.append(
                f"  note: {store_counters['errors']} store I/O errors "
                "ignored (the store degrades, it never fails a run)"
            )
        lines.append("")
    lines.append(f"applied optimizations: {len(result.applied)}")
    if result.offloaded_tables:
        lines.append(
            "controller must now implement: "
            + ", ".join(result.offloaded_tables)
        )
    lines.append("")
    lines.append("decisions for review:")
    lines.append("-" * 72)
    for decision in result.decisions:
        lines.append(render_decision(decision))
        lines.append("")
    return "\n".join(lines)


def summary_line(result: P2GOResult) -> str:
    """One-line summary for benchmark output."""
    path = " -> ".join(str(o.stages) for o in result.outcomes)
    return (
        f"{result.original_program.name}: stages {path} "
        f"({len(result.applied)} optimizations)"
    )


def render_serve_report(serve: "ServeResult") -> str:
    """The continuous-optimization daemon's end-of-run report.

    The operator-facing half of :mod:`repro.core.serve`: traffic
    volume and throughput, the alert/reaction funnel (alerts ->
    re-optimizations -> gate verdicts -> swaps), per-cycle detail, and
    the zero-misprocessed invariant front and centre.
    """
    stats = serve.stats
    lines: List[str] = [
        "=" * 72,
        f"P2GO serve report — {serve.initial.original_program.name}",
        "=" * 72,
        "",
        f"packets: {stats.packets_in} in, "
        f"{stats.packets_processed} processed, "
        f"{stats.packets_dropped} dropped by policy, "
        f"{stats.misprocessed} misprocessed",
        f"throughput: {stats.packets_per_second:,.0f} packets/s over "
        f"{stats.elapsed_seconds:.2f}s",
        "",
        f"alerts: {stats.drift_alerts} hit-rate drift, "
        f"{stats.combination_alerts} new action combinations "
        f"({stats.alerts_coalesced} coalesced into pending cycles)",
        f"cycles: {stats.reoptimizations} re-optimizations "
        f"({stats.failed_reoptimizations} failed), "
        f"{stats.swaps} promoted swaps, "
        f"{stats.rejected_promotions} rejected by the equivalence gate",
    ]
    if stats.swap_seconds:
        lines.append(
            f"swap latency: {stats.swap_latency * 1e3:.2f} ms mean, "
            f"{max(stats.swap_seconds) * 1e3:.2f} ms max"
        )
    if stats.events:
        lines.append("")
        lines.append("cycles:")
        for i, event in enumerate(stats.events, 1):
            verdict = "promoted" if event.promoted else "rejected"
            lines.append(
                f"  #{i} at packet {event.packet_index}: {verdict}; "
                f"stages {event.stages_before} -> {event.stages_after}, "
                f"reoptimize {event.reoptimize_seconds:.2f}s, "
                f"gate {event.gate_mismatches}/{event.gate_packets} "
                f"mismatches in {event.gate_seconds * 1e3:.2f} ms, "
                f"swap {event.swap_seconds * 1e3:.2f} ms"
            )
    lines.append("")
    lines.append(
        f"serving: {serve.program.name} at "
        f"{serve.current.stages_after} stages "
        f"(started at {serve.initial.stages_before})"
    )
    if serve.session_counters is not None:
        lines.append("session: " + serve.session_counters.render())
    return "\n".join(lines)


def _lease_line(lease: dict) -> str:
    """One fan-out's :func:`~repro.core.fanout.lease_contention`."""
    return (
        f"leases: {lease['lease_claims']} claimed, "
        f"{lease['lease_waits']} contended waits, "
        f"{lease['lease_wait_hits']} resolved as disk hits, "
        f"{lease['leases_reaped']} stale leases reaped"
    )


def render_fleet_report(fleet: "FleetResult") -> str:
    """The fabric-level report for one fleet run.

    Per switch: the stage path and where its probe answers came from
    (memo / shared disk store / executed).  For the fabric: total
    stages reclaimed, the cross-switch reuse rate the shared store
    bought, lease contention (waits that turned into disk hits instead
    of duplicate work), and the wall clock against the sum of the
    per-switch times — what the same fabric would cost run serially.
    """
    agg = fleet.aggregate()
    lines: List[str] = [
        "=" * 72,
        f"P2GO fleet report — {agg['switches']} switches, "
        f"{agg['workers']} workers",
        "=" * 72,
        "",
    ]
    name_width = max(
        (len(switch.name) for switch in fleet.switches), default=6
    )
    for switch in fleet.switches:
        result = switch.result
        path = " -> ".join(str(o.stages) for o in result.outcomes)
        provenance = ""
        counters = result.session_counters
        if counters is not None:
            provenance = (
                f"  [memo {counters.compile_hits + counters.profile_hits}"
                f" / disk {counters.compile_disk_hits + counters.profile_disk_hits}"
                f" / executed "
                f"{counters.compile_executions + counters.profile_executions}]"
            )
        lines.append(
            f"{switch.name:<{name_width}}  stages {path:<20} "
            f"{switch.seconds:6.2f}s{provenance}"
        )
    lines.append("")
    lines.append(
        f"stages reclaimed: {agg['stages_reclaimed']} "
        f"({agg['stages_before']} -> {agg['stages_after']} fabric-wide)"
    )
    lines.append(
        f"probes: {agg['probe_calls']} asked, "
        f"{agg['probe_executions']} executed, "
        f"{agg['probe_disk_hits']} answered by the shared store "
        f"(cross-switch reuse {agg['disk_reuse_rate']:.1%})"
    )
    if fleet.store_root is not None:
        lines.append(_lease_line(agg))
        lines.append(f"shared store: {fleet.store_root}")
    speedup = (
        agg["switch_seconds"] / agg["wall_seconds"]
        if agg["wall_seconds"] > 0
        else 0.0
    )
    lines.append(
        f"wall clock: {agg['wall_seconds']:.2f}s for the fleet vs "
        f"{agg['switch_seconds']:.2f}s of per-switch work "
        f"({speedup:.2f}x)"
    )
    return "\n".join(lines)


def render_explore_report(explore: "ExploreResult") -> str:
    """The sweep-level report for one design-space exploration.

    Per program: the Pareto frontier (every non-dominated feasible,
    fitting point with its objective values) and the fit breakpoint
    (the smallest swept shape the optimized program still fits).  For
    the sweep: the point census, probe provenance, the cross-point
    reuse rate the shared store bought, and lease contention.  Timings,
    lease counts and worker counts live here — and only here; the
    canonical JSON excludes them so its bytes are
    worker-count-independent.
    """
    agg = explore.aggregate()
    lines: List[str] = [
        "=" * 72,
        f"P2GO design-space exploration — {agg['points']} points "
        f"({explore.space.size}-point space), {explore.workers} workers",
        "=" * 72,
        "",
    ]
    frontier = explore.frontier()
    breakpoints = explore.breakpoints()
    for program in explore.space.programs:
        front = frontier.get(program, [])
        fitting = sum(
            1
            for outcome in explore.outcomes
            if outcome.point.program == program
            and outcome.feasible
            and outcome.fits
        )
        lines.append(
            f"{program}: {len(front)} frontier point(s) of "
            f"{fitting} fitting"
        )
        for outcome in front:
            metrics = outcome.metrics
            lines.append(
                f"  {outcome.point.point_id:<48} "
                f"stages {metrics['stages_used']:>2}  "
                f"load {metrics['controller_load']:>6.1%}  "
                f"coverage {metrics['profile_coverage']:>6.1%}  "
                f"compiles {metrics['compile_count']:>3}"
            )
        breakpoint_info = breakpoints.get(program)
        if breakpoint_info is not None:
            smallest = breakpoint_info["smallest_fit"]
            shape = (
                "x".join(str(v) for v in smallest)
                if smallest is not None
                else "none — no swept shape fits"
            )
            lines.append(
                f"  smallest fitting shape: {shape} "
                f"({breakpoint_info['shapes_fit']}/"
                f"{breakpoint_info['shapes_swept']} shapes fit)"
            )
        lines.append("")
    if agg["infeasible"]:
        lines.append(
            f"infeasible points: {agg['infeasible']} (program cannot be "
            "allocated on the shape at all)"
        )
    lines.append(
        f"probes: {agg['probe_calls']} asked, "
        f"{agg['probe_executions']} executed, "
        f"{agg['probe_disk_hits']} answered by the shared store "
        f"(cross-point reuse {agg['disk_reuse_rate']:.1%})"
    )
    if explore.store_root is not None:
        # Who waited on whom depends on the scheduling, so lease
        # contention stays off the aggregate (and the canonical JSON).
        lines.append(
            _lease_line(
                lease_contention(o.store_stats for o in explore.outcomes)
            )
        )
        lines.append(f"shared store: {explore.store_root}")
    point_seconds = sum(outcome.seconds for outcome in explore.outcomes)
    speedup = (
        point_seconds / explore.wall_seconds
        if explore.wall_seconds > 0
        else 0.0
    )
    lines.append(
        f"wall clock: {explore.wall_seconds:.2f}s for the sweep vs "
        f"{point_seconds:.2f}s of per-point work ({speedup:.2f}x)"
    )
    return "\n".join(lines)
