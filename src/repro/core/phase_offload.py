"""Phase 4 — offloading code segments to the controller (§3.4).

P2GO enumerates self-contained code segments, generates a variant of the
program per candidate where the segment is replaced by a table that
redirects matching traffic to the controller, compiles each variant,
and selects the one segment that saves at least one stage with the
least traffic redirected — bounded by a controller-load budget so the
data plane never drowns the controller.  The paper profiles each
variant for its redirected traffic; here that load is read off the
program's own profile, which already holds it (see
:func:`evaluate_candidates`), and a variant is replayed only for the
one segment shape that profile cannot answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field, replace
from typing import FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

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
    Seq,
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


@dataclass(frozen=True)
class SegmentCandidate:
    """A self-contained subtree that could move to the controller:
    ``tables`` are those of the body its redirect replaces."""

    subtree: ControlNode
    tables: Tuple[str, ...]
    boundary_guard: Optional[str]  # printable condition kept in data plane


def _body(subtree: ControlNode) -> ControlNode:
    """What the redirect replaces: an If root's then-branch (its
    condition and else-branch stay in the data plane), else all of it."""
    return subtree.then_node if isinstance(subtree, If) else subtree


def _applies_on_every_path(node: ControlNode) -> bool:
    """Does every path through ``node`` apply a table?  Then a packet
    enters ``node`` exactly when it applies one of its tables."""
    if isinstance(node, Apply):
        return True
    if isinstance(node, Seq):
        return any(_applies_on_every_path(child) for child in node.nodes)
    return node.else_node is not None and all(
        _applies_on_every_path(child) for child in node.children()
    )


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
    return decision.candidate.redirect_fraction


def _tables(decision: Decision) -> Tuple[str, ...]:
    return decision.candidate.segment.tables


def _refusal(saved: int, load: float, max_redirect_fraction: float) -> Reason:
    """Why a segment loses when it does; OUTRANKED means it qualifies."""
    if saved < 1:
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
    ingress port), and nothing outside may consume what it produces:
    no metadata it writes is read outside, no packet header field it
    writes is read after it, and its registers are private.
    Writes to the standard metadata (forwarding decisions) are the
    segment's *output* and always allowed.  The segment is the body the
    redirect replaces: a root If is the *boundary guard*, which stays in
    the data plane, its condition's reads nobody's and its else-branch
    outside.
    """
    inside_nodes = list(iter_nodes(_body(subtree)))
    inside_tables = {n.table for n in inside_nodes if isinstance(n, Apply)}
    if not inside_tables:
        return False
    reads, writes, registers = _reads_writes(program, inside_nodes)
    inside_ids = {id(n) for n in inside_nodes} | {id(subtree)}
    # Outside nodes, split at the segment in pre-order: a node before it
    # runs before it on every packet that reaches both (an ancestor, an
    # earlier sibling) or never on the same packet (an earlier branch).
    before: List[ControlNode] = []
    after: List[ControlNode] = []
    side = before
    for control in (program.ingress, program.egress):
        for node in iter_nodes(control):
            if node is subtree:
                side = after
            elif id(node) not in inside_ids:
                side.append(node)
    out_reads, out_writes, out_registers = _reads_writes(
        program, before + after
    )
    later_reads = _reads_writes(program, after)[0]

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
        if _is_standard(ref):
            continue
        if ref in (out_reads if _is_metadata_field(program, ref)
                   else later_reads):
            # Something outside consumes our output.  A packet header
            # field travels on with the packet, so a switch table after
            # the segment would read it unwritten once the segment is
            # offloaded.
            return False
    return True


def enumerate_candidates(program: Program) -> List[SegmentCandidate]:
    """All self-contained subtrees (deduplicated by table set)."""
    candidates: List[SegmentCandidate] = []
    seen: Set[FrozenSet[str]] = set()
    all_tables = set(program.tables_in_control_order())
    for node in iter_nodes(program.ingress):
        if node is program.ingress:
            continue  # offloading the whole program is out of scope
        tables = tuple(tables_applied(_body(node)))
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
    actions = dict(program.actions)
    if TO_CTL_ACTION not in actions:
        actions[TO_CTL_ACTION] = Action(
            name=TO_CTL_ACTION, primitives=(SendToController(OFFLOAD_REASON),)
        )
    tables = dict(program.tables)
    tables[table_name] = Table(
        name=table_name,
        keys=(),
        actions=(),
        default_action=TO_CTL_ACTION,
        size=1,
    )
    return replace(
        program,
        actions=actions,
        tables=tables,
        ingress=replace_subtree(program.ingress, subtree, replacement),
    )


def _without_segment(
    config: RuntimeConfig, offloaded: Program, candidate: SegmentCandidate
) -> RuntimeConfig:
    """``config`` for ``offloaded``: the segment's entries go with it."""
    return config.restricted_to(
        [t for t in offloaded.tables if t not in candidate.tables]
    )


def evaluate_candidates(
    ctx: OptimizationContext,
    program: Program,
    config: RuntimeConfig,
    candidates: Sequence[SegmentCandidate],
    baseline_stages: Optional[int] = None,
    max_redirect_fraction: float = DEFAULT_MAX_REDIRECT,
) -> List[Decision]:
    """Compile the redirect variant of every candidate and read the
    traffic it would redirect: one rejected decision per segment, its
    reason what keeps it from qualifying (OUTRANKED when nothing does).

    §3.4 profiles each variant, but a variant's profile adds one fact,
    the redirect table's apply rate, and ``program``'s own profile
    already holds it.  The segment is self-contained, so the walk up to
    it is the same in both programs, and each table is applied at most
    once: the redirect applies on exactly the packets that enter the
    body it replaces.  When every path through that body applies a
    table, those are the packets that traverse one of its tables, and
    the load is ``traversal_rate`` of them on ``program``'s profile
    (the measure :func:`repro.core.drift.recheck` re-checks).  Only a
    body that can be entered without applying a table, e.g. a nested If
    with no else, has its variant replayed.  Every probe goes through
    ``ctx`` and is memoized; the profile of ``program`` is asked for
    only when some candidate needs it.
    """
    if baseline_stages is None:
        baseline_stages = ctx.compile(program).stages_used

    redirect_table = unique_redirect_name(program)
    profile = None
    evaluated: List[Decision] = []
    for candidate in candidates:
        modified = make_offloaded_program(
            program, candidate, table_name=redirect_table
        )
        stages_after = ctx.compile(modified).stages_used
        if _applies_on_every_path(_body(candidate.subtree)):
            if profile is None:
                profile = ctx.profile(program, config)
            load = profile.traversal_rate(candidate.tables)
        else:
            load = ctx.profile(
                modified, _without_segment(config, modified, candidate)
            ).apply_rate(redirect_table)
        evaluated.append(
            Decision(
                Phase.OFFLOAD_CODE, Verdict.REJECTED,
                Offload(candidate, redirect_table, load),
                _refusal(
                    baseline_stages - stages_after, load,
                    max_redirect_fraction,
                ),
                stages_before=baseline_stages,
                stages_after=stages_after,
            )
        )
    return evaluated


def select_candidate(
    evaluated: Sequence[Decision],
    max_redirect_fraction: float = DEFAULT_MAX_REDIRECT,
) -> Optional[Decision]:
    """§3.4's selection: the least redirected traffic among the segments
    that save a stage within the controller budget."""
    eligible = [
        d
        for d in evaluated
        if _refusal(_saved(d), _load(d), max_redirect_fraction)
        is Reason.OUTRANKED
    ]
    if not eligible:
        return None
    return min(
        eligible,
        key=lambda d: (
            _load(d), -_saved(d), len(_tables(d)), sorted(_tables(d))
        ),
    )


def run_phase(
    ctx: OptimizationContext,
    program: Program,
    config: RuntimeConfig,
    max_redirect_fraction: float = DEFAULT_MAX_REDIRECT,
) -> PassResult:
    """Offload the best segment if any qualifies: one decision per
    self-contained segment."""
    candidates = enumerate_candidates(program)
    baseline_stages = ctx.compile(program).stages_used
    decisions = evaluate_candidates(
        ctx, program, config, candidates, baseline_stages,
        max_redirect_fraction,
    )
    chosen = select_candidate(decisions, max_redirect_fraction)
    if chosen is None:
        return PassResult(tuple(decisions))
    accepted = replace(chosen, verdict=Verdict.ACCEPTED, reason=None)
    offload = chosen.candidate
    offloaded_program = make_offloaded_program(
        program, offload.segment, table_name=offload.redirect_table
    )
    return PassResult(
        tuple(accepted if d is chosen else d for d in decisions),
        program=offloaded_program,
        config=_without_segment(config, offloaded_program, offload.segment),
    )


@dataclass
class OffloadPass:
    """Phase 4 as an :class:`~repro.core.passes.OptimizationPass`.

    Evaluates every self-contained segment's redirect variant through
    the session cache and proposes the qualifying one that redirects the
    least traffic (program *and* config change together).
    """

    max_redirect_fraction: float = DEFAULT_MAX_REDIRECT
    max_rounds: int = 1
    name: str = dc_field(default="offload-code", init=False)
    phase: Phase = dc_field(default=Phase.OFFLOAD_CODE, init=False)

    def run(self, ctx: OptimizationContext) -> PassResult:
        return run_phase(
            ctx, ctx.program, ctx.config,
            max_redirect_fraction=self.max_redirect_fraction,
        )
