"""Phase 4 — offloading code segments to the controller (§3.4).

P2GO enumerates self-contained code segments, generates a variant of the
program per candidate where the segment is replaced by a table that
redirects matching traffic to the controller, compiles and profiles each
variant, and selects the candidate (or, in multi-segment mode, the
dynamic-programming combination of disjoint candidates) that saves at
least the requested stages with the least traffic redirected — bounded by
a controller-load budget so the data plane never drowns the controller.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field, replace
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.observations import Decision, Phase, Reason, Verdict
from repro.core.passes import PassResult
from repro.core.session import OptimizationContext
from repro.exceptions import OffloadError
from repro.p4.actions import (
    Action,
    SendToController,
    STANDARD_METADATA,
)
from repro.p4.control import (
    Apply,
    ControlNode,
    If,
    iter_nodes,
    replace_subtree,
    tables_applied,
)
from repro.p4.expressions import FieldRef, fields_read
from repro.p4.program import Program
from repro.p4.tables import Table
from repro.sim.runtime import RuntimeConfig

#: Default ceiling on the fraction of traffic a segment may redirect
#: (§3.4: offloading must not overload the controller).
DEFAULT_MAX_REDIRECT = 0.10

TO_CTL_TABLE = "To_Ctl"
TO_CTL_ACTION = "to_controller"

#: Reason code carried by redirected packets.
OFFLOAD_REASON = 0x0F


@dataclass
class SegmentCandidate:
    """A self-contained subtree that could move to the controller."""

    subtree: ControlNode
    tables: Tuple[str, ...]
    boundary_guard: Optional[str]  # printable condition kept in data plane


@dataclass(frozen=True)
class Offload:
    """One segment moved (or proposed to move) to the controller, as its
    decision keeps it (``P2GOResult.offloaded``): without the variant
    :class:`Program`, so it pickles small."""

    segment: SegmentCandidate
    redirect_table: str
    redirect_fraction: float


def _saved(decision: Decision) -> int:
    return decision.stages_before - decision.stages_after


def _load(decision: Decision) -> float:
    return sum(o.redirect_fraction for o in decision.candidate)


def _tables(decision: Decision) -> List[str]:
    return [t for o in decision.candidate for t in o.segment.tables]


def _refusal(
    saved: int, load: float, min_stage_savings: int,
    max_redirect_fraction: float,
) -> Reason:
    """Why a segment loses when it does; OUTRANKED means it qualifies."""
    if saved < min_stage_savings:
        return Reason.NO_STAGE_SAVED
    if load > max_redirect_fraction:
        return Reason.OVER_BUDGET
    return Reason.OUTRANKED


def _is_standard(ref: FieldRef) -> bool:
    return ref.header == STANDARD_METADATA


def _reads_writes(
    program: Program, nodes: Iterable[ControlNode]
) -> Tuple[Set[FieldRef], Set[FieldRef], Set[str]]:
    """(reads, writes, registers) of ``nodes``: each If's condition and
    each applied table's keys and actions."""
    reads: Set[FieldRef] = set()
    writes: Set[FieldRef] = set()
    registers: Set[str] = set()
    for node in nodes:
        if isinstance(node, If):
            reads.update(fields_read(node.condition))
        elif isinstance(node, Apply):
            table = program.tables[node.table]
            reads.update(k.field for k in table.keys)
            for action_name in table.all_action_names():
                action = program.actions[action_name]
                reads.update(action.reads())
                writes.update(action.writes())
                registers.update(action.registers_read())
                registers.update(action.registers_written())
    return reads, writes, registers


def _is_metadata_field(program: Program, ref: FieldRef) -> bool:
    inst = program.headers.get(ref.header)
    return inst is not None and inst.metadata


def is_self_contained(program: Program, subtree: ControlNode) -> bool:
    """§3.4's offloadability test.

    The segment must need no state produced elsewhere (its tables read
    only packet headers, metadata it writes itself, or the read-only
    ingress port), and nothing downstream may consume what it produces
    (its metadata writes feed nothing outside; its registers are private).
    Writes to the standard metadata (forwarding decisions) are the
    segment's *output* and always allowed.
    """
    inside_tables = set(tables_applied(subtree))
    if not inside_tables:
        return False
    inside_nodes = list(iter_nodes(subtree))
    # A root If is the *boundary guard*: it stays in the data plane, so
    # its condition's reads are nobody's.
    reads, writes, registers = _reads_writes(
        program,
        (n for n in inside_nodes if not (n is subtree and isinstance(n, If))),
    )
    inside_ids = {id(n) for n in inside_nodes}
    out_reads, out_writes, out_registers = _reads_writes(
        program,
        (
            node
            for control in (program.ingress, program.egress)
            for node in iter_nodes(control)
            if id(node) not in inside_ids
            and not (isinstance(node, Apply) and node.table in inside_tables)
        ),
    )

    if registers & out_registers:
        return False
    ingress_port = FieldRef(STANDARD_METADATA, "ingress_port")
    for ref in reads:
        if not _is_metadata_field(program, ref):
            continue  # packet header fields travel with the packet
        if ref == ingress_port:
            continue  # arrives with the punted packet
        if _is_standard(ref):
            return False  # depends on earlier forwarding decisions
        if ref in out_writes:
            # Any outside write taints the field: even if the segment also
            # writes it, a key/hash read may observe the outside value
            # before the segment's own write.
            return False
    for ref in writes:
        if not _is_metadata_field(program, ref) or _is_standard(ref):
            continue
        if ref in out_reads:
            return False  # something downstream consumes our output
    return True


def enumerate_candidates(program: Program) -> List[SegmentCandidate]:
    """All self-contained subtrees (deduplicated by table set)."""
    candidates: List[SegmentCandidate] = []
    seen: Set[FrozenSet[str]] = set()
    all_tables = set(program.tables_in_control_order())
    for node in iter_nodes(program.ingress):
        if node is program.ingress:
            continue  # offloading the whole program is out of scope
        tables = tuple(tables_applied(node))
        if not tables:
            continue
        key = frozenset(tables)
        if key in seen or key == frozenset(all_tables):
            seen.add(key)
            continue
        seen.add(key)
        if not is_self_contained(program, node):
            continue
        guard = (
            str(node.condition) if isinstance(node, If) else None
        )
        candidates.append(
            SegmentCandidate(
                subtree=node, tables=tables, boundary_guard=guard
            )
        )
    return candidates


def unique_redirect_name(program: Program, base: str = TO_CTL_TABLE) -> str:
    """First unused ``To_Ctl``-style name (re-runs add To_Ctl_2, ...)."""
    if base not in program.tables:
        return base
    suffix = 2
    while f"{base}_{suffix}" in program.tables:
        suffix += 1
    return f"{base}_{suffix}"


def make_offloaded_program(
    program: Program,
    candidate: SegmentCandidate,
    table_name: Optional[str] = None,
    reason: int = OFFLOAD_REASON,
) -> Program:
    """Replace the segment with a redirect table.

    When the segment root is an If, the condition stays in the data plane
    and only its body is replaced — the redirect table then matches
    exactly the traffic the segment used to process, the paper's "rules
    equivalent to the superset of match-action rules of the segment".
    """
    if table_name is None:
        table_name = unique_redirect_name(program)
    if table_name in program.tables:
        raise OffloadError(
            f"table name {table_name!r} already exists in the program"
        )
    subtree = candidate.subtree
    redirect = Apply(table_name)
    if isinstance(subtree, If):
        replacement: ControlNode = If(
            subtree.condition, redirect, subtree.else_node
        )
    else:
        replacement = redirect
    new_ingress = replace_subtree(program.ingress, subtree, replacement)
    out = program.with_ingress(new_ingress)
    action_name = TO_CTL_ACTION
    if action_name not in out.actions:
        out.actions[action_name] = Action(
            name=action_name, primitives=(SendToController(reason),)
        )
    out.tables[table_name] = Table(
        name=table_name,
        keys=(),
        actions=(),
        default_action=action_name,
        size=1,
    )
    out.validate()
    return out


def make_combined_offloaded_program(
    program: Program,
    candidates: Sequence[SegmentCandidate],
    reason: int = OFFLOAD_REASON,
) -> Program:
    """Replace several *disjoint* segments with redirect tables.

    Candidates must come from :func:`enumerate_candidates` on ``program``
    (subtree identity matters) and must not overlap; each gets its own
    uniquely-named redirect table.
    """
    seen: Set[str] = set()
    for candidate in candidates:
        overlap = seen & set(candidate.tables)
        if overlap:
            raise OffloadError(
                f"segments overlap on tables {sorted(overlap)}"
            )
        seen.update(candidate.tables)

    out = program
    for candidate in candidates:
        # replace_subtree shares unmodified branches, so later candidates'
        # subtree nodes keep their identity as long as segments are
        # disjoint subtrees.
        out = make_offloaded_program(
            out, candidate, table_name=unique_redirect_name(out),
            reason=reason,
        )
    return out


def evaluate_candidates(
    ctx: OptimizationContext,
    program: Program,
    config: RuntimeConfig,
    candidates: Sequence[SegmentCandidate],
    baseline_stages: Optional[int] = None,
    min_stage_savings: int = 1,
    max_redirect_fraction: float = DEFAULT_MAX_REDIRECT,
) -> List[Decision]:
    """Compile + profile the redirect variant of every candidate (§3.4:
    "P2GO compiles and profiles a modified program for each candidate"):
    one rejected decision per segment, its reason what keeps it from
    qualifying (OUTRANKED when nothing does).

    Every variant compile/profile goes through ``ctx`` and is memoized —
    the accepted variant's later re-profile by the orchestrator (and
    repeat evaluations across re-runs on the same session) cost nothing.
    The variants are independent, so they are evaluated as one mixed
    :meth:`~repro.core.session.OptimizationContext.probe_many` batch:
    compiles and trace replays of all candidates run concurrently when
    the session has workers, with results and counters identical to the
    serial loop.
    """
    if baseline_stages is None:
        baseline_stages = ctx.compile(program).stages_used

    # Build every redirect variant up front (pure rewriting), then
    # batch-probe: one compile and one replay per candidate.
    redirect_table = unique_redirect_name(program)
    variants: List[Tuple[Program, "RuntimeConfig"]] = []
    for candidate in candidates:
        modified = make_offloaded_program(
            program, candidate, table_name=redirect_table
        )
        remaining = [
            t for t in modified.tables if t not in candidate.tables
        ]
        variants.append((modified, config.restricted_to(remaining)))

    compiled, profiled = ctx.probe_many(
        programs=[modified for modified, _adapted in variants],
        variants=variants,
    )
    evaluated: List[Decision] = []
    for candidate, result, profile in zip(
        candidates, compiled, profiled
    ):
        load = profile.apply_rate(redirect_table)
        evaluated.append(
            Decision(
                Phase.OFFLOAD_CODE, Verdict.REJECTED,
                (Offload(candidate, redirect_table, load),),
                _refusal(
                    baseline_stages - result.stages_used, load,
                    min_stage_savings, max_redirect_fraction,
                ),
                stages_before=baseline_stages,
                stages_after=result.stages_used,
            )
        )
    return evaluated


def select_candidate(
    evaluated: Sequence[Decision],
    min_stage_savings: int = 1,
    max_redirect_fraction: float = DEFAULT_MAX_REDIRECT,
) -> Optional[Decision]:
    """Least redirected traffic among segments saving enough stages."""
    eligible = [
        d
        for d in evaluated
        if _refusal(
            _saved(d), _load(d), min_stage_savings, max_redirect_fraction
        ) is Reason.OUTRANKED
    ]
    if not eligible:
        return None
    return min(
        eligible,
        key=lambda d: (
            _load(d), -_saved(d), len(_tables(d)), sorted(_tables(d))
        ),
    )


def select_combination(
    evaluated: Sequence[Decision],
    min_stage_savings: int,
    max_redirect_fraction: float = DEFAULT_MAX_REDIRECT,
) -> List[Decision]:
    """Dynamic program over disjoint segments: minimize total redirected
    traffic subject to a total stage-savings target.

    States are (segments considered, stages saved so far); the load of a
    combination is estimated additively (disjoint segments redirect
    disjoint guard events) and the winning combination should be re-verified
    by compiling the combined program.
    """
    items = [
        d
        for d in evaluated
        if _saved(d) > 0 and _load(d) <= max_redirect_fraction
    ]
    items.sort(key=lambda d: sorted(_tables(d)))

    # dp[(savings, used_tables)] = (load, chosen indices); savings capped.
    cap = max(min_stage_savings, 0)
    dp: Dict[Tuple[int, FrozenSet[str]], Tuple[float, Tuple[int, ...]]] = {
        (0, frozenset()): (0.0, ())
    }
    for i, item in enumerate(items):
        tables = frozenset(_tables(item))
        additions = []
        for (savings, used), (load, chosen) in dp.items():
            if tables & used:
                continue
            new_savings = min(savings + _saved(item), cap)
            new_used = used | tables
            new_load = load + _load(item)
            if new_load > max_redirect_fraction:
                continue
            key = (new_savings, new_used)
            if key not in dp or dp[key][0] > new_load:
                additions.append((key, (new_load, chosen + (i,))))
        for key, value in additions:
            if key not in dp or dp[key][0] > value[0]:
                dp[key] = value
    winners = [
        (load, chosen)
        for (savings, _used), (load, chosen) in dp.items()
        if savings >= min_stage_savings
    ]
    if not winners:
        return []
    _total, chosen = min(winners, key=lambda w: (w[0], len(w[1])))
    return [items[i] for i in chosen]


def _try_combination(
    ctx: OptimizationContext,
    program: Program,
    evaluated: Sequence[Decision],
    min_stage_savings: int,
    max_redirect_fraction: float,
) -> Optional[Tuple[Decision, Program]]:
    """§3.4's DP: combine disjoint segments when no single one suffices.

    Returns the combination's decision (each segment with its own
    redirect table) and the combined program, or None when the DP finds
    no combination.
    """
    combo = select_combination(
        evaluated,
        min_stage_savings=min_stage_savings,
        max_redirect_fraction=max_redirect_fraction,
    )
    if not combo:
        return None
    combined = make_combined_offloaded_program(
        program, [d.candidate[0].segment for d in combo]
    )
    # Each segment got its own redirect table, added in segment order.
    redirects = [t for t in combined.tables if t not in program.tables]
    decision = Decision(
        Phase.OFFLOAD_CODE, Verdict.ACCEPTED,
        tuple(
            replace(d.candidate[0], redirect_table=name)
            for d, name in zip(combo, redirects)
        ),
        stages_before=combo[0].stages_before,
        stages_after=ctx.compile(combined).stages_used,
    )
    if _saved(decision) < min_stage_savings:
        # The additive estimate was optimistic.
        decision = replace(
            decision, verdict=Verdict.REJECTED, reason=Reason.NO_STAGE_SAVED
        )
    return decision, combined


def run_phase(
    ctx: OptimizationContext,
    program: Program,
    config: RuntimeConfig,
    min_stage_savings: int = 1,
    max_redirect_fraction: float = DEFAULT_MAX_REDIRECT,
    allow_combination: bool = False,
) -> PassResult:
    """Offload the best segment (or, with ``allow_combination``, the best
    DP combination of disjoint segments) if any qualifies: one decision
    per self-contained segment, plus one for the combination."""
    candidates = enumerate_candidates(program)
    baseline_stages = ctx.compile(program).stages_used
    decisions = evaluate_candidates(
        ctx, program, config, candidates, baseline_stages,
        min_stage_savings, max_redirect_fraction,
    )
    chosen = select_candidate(
        decisions,
        min_stage_savings=min_stage_savings,
        max_redirect_fraction=max_redirect_fraction,
    )
    if chosen is not None:
        accepted = replace(chosen, verdict=Verdict.ACCEPTED, reason=None)
        decisions = [accepted if d is chosen else d for d in decisions]
        (offload,) = chosen.candidate
        offloaded_program = make_offloaded_program(
            program, offload.segment, table_name=offload.redirect_table
        )
    elif allow_combination:
        found = _try_combination(
            ctx, program, decisions, min_stage_savings, max_redirect_fraction
        )
        if found is None:
            return PassResult(tuple(decisions))
        accepted, offloaded_program = found
        decisions.append(accepted)
        if accepted.verdict is Verdict.REJECTED:
            return PassResult(tuple(decisions))
    else:
        return PassResult(tuple(decisions))
    moved = set(_tables(accepted))
    return PassResult(
        tuple(decisions),
        program=offloaded_program,
        config=config.restricted_to(
            [t for t in offloaded_program.tables if t not in moved]
        ),
    )


@dataclass
class OffloadPass:
    """Phase 4 as an :class:`~repro.core.passes.OptimizationPass`.

    Evaluates every self-contained segment's redirect variant through
    the session cache and proposes the qualifying one that redirects the
    least traffic (program *and* config change together).
    """

    min_stage_savings: int = 1
    max_redirect_fraction: float = DEFAULT_MAX_REDIRECT
    allow_combination: bool = False
    max_rounds: int = 1
    name: str = dc_field(default="offload-code", init=False)
    phase: Phase = dc_field(default=Phase.OFFLOAD_CODE, init=False)

    def run(self, ctx: OptimizationContext) -> PassResult:
        return run_phase(
            ctx, ctx.program, ctx.config,
            min_stage_savings=self.min_stage_savings,
            max_redirect_fraction=self.max_redirect_fraction,
            allow_combination=self.allow_combination,
        )
