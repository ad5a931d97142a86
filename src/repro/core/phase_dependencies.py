"""Phase 2 — removing dependencies that do not manifest (§3.2).

Candidates are dependencies on the longest path of the TDG (only those can
shorten the pipeline).  A candidate is removable when none of its causes
manifests in the profile: for an ACTION cause, the two conflicting actions
were never applied to the same packet; for a MATCH cause, the writing
action never co-executed with *any* application of the consumer.

The removal rewrite is the paper's: "adds a conditional statement such
that one of the dependent tables is only applied if the other misses."
Concretely, the consumer's guarded apply is relocated into the source
table's miss branch — legal only when the parser proves the consumer's
guard implies the source's guard (e.g. every DHCP packet is a UDP packet),
so no packet is orphaned.

A relocation the profile licenses replays nothing: no profiled packet
hit the source while the consumer was applied, and the consumer's unit
sits right after the source's, so on the profiled trace the rewritten
program runs every packet through the same steps, in the same order,
with the same register effects and decisions as its parent.
:class:`DependencyRemovalPass` therefore adopts the round's profile as
the rewritten program's (:meth:`~repro.core.session.\
OptimizationContext.adopt_profile`; DESIGN.md §5).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field, replace
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.dependencies import (
    Dependency,
    DependencyKind,
)
from repro.core.observations import Decision, Phase, Reason, Verdict
from repro.core.passes import PassResult
from repro.core.profiler import Profile
from repro.core.session import OptimizationContext
from repro.exceptions import OptimizationError
from repro.p4.control import (
    Apply,
    ControlNode,
    If,
    Seq,
    find_apply,
    iter_nodes,
    remove_subtree,
    replace_subtree,
)
from repro.p4.expressions import LNot, ValidExpr
from repro.p4.program import Program
from repro.target.compiler import CompileResult


def dependency_manifests(dep: Dependency, profile: Profile) -> bool:
    """Does any cause of this dependency show up in the profile?"""
    for cause in dep.causes:
        if cause.kind in (DependencyKind.SUCCESSOR, DependencyKind.REVERSE):
            # Pure ordering constraints (no stage separation); the
            # apply-on-miss rewrite preserves execution order, so these
            # never block a removal.
            continue
        src_pair = (dep.src, cause.src_action)
        if cause.kind is DependencyKind.ACTION:
            assert cause.dst_action is not None
            if profile.actions_coapplied(
                src_pair, (dep.dst, cause.dst_action)
            ):
                return True
        else:  # MATCH: the consumer's match phase reads the written field.
            if profile.action_coapplied_with_table(src_pair, dep.dst):
                return True
    return False


def critical_candidates(compile_result: CompileResult) -> List[Dependency]:
    """Phase 2's candidates: the dependencies on the TDG's longest path
    that separate their tables by a stage, ordered by ``(src, dst)``."""
    return sorted(
        (
            dep
            for dep in compile_result.dependency_graph.critical_dependencies()
            if dep.min_stage_separation  # successor/reverse: 0 already
        ),
        key=lambda dep: (dep.src, dep.dst),
    )


def _profile_refusal(dep: Dependency, profile: Profile) -> Optional[Reason]:
    """Why the profile forbids removing ``dep`` (None: it allows it)."""
    if dependency_manifests(dep, profile):
        return Reason.MANIFESTS
    # The rewrite makes dst run only when src misses, i.e. it
    # suppresses dst on every src-hit packet.  Unmanifested causes
    # are not enough: if any profiled packet hit src while dst was
    # applied (even just its default action), relocation would
    # change that packet's traversal — found by differential
    # fuzzing, where generated tables hit and apply in combinations
    # the hand-written examples never exercise.
    if profile.hit_coapplied_with_table(dep.src, dep.dst):
        return Reason.HIT_COAPPLIED
    return None


def find_removal_candidates(
    compile_result: CompileResult, profile: Profile
) -> List[Dependency]:
    """The critical candidates the profile allows removing."""
    return [
        dep
        for dep in critical_candidates(compile_result)
        if _profile_refusal(dep, profile) is None
    ]


# ----------------------------------------------------------------------
# The rewrite


def _parents(root: ControlNode) -> Dict[int, ControlNode]:
    """Map id(node) -> parent for the whole tree."""
    parents: Dict[int, ControlNode] = {}
    for node in iter_nodes(root):
        for child in node.children():
            parents[id(child)] = node
    return parents


def _relocation_unit(
    root: ControlNode, apply_node: Apply, parents: Dict[int, ControlNode]
) -> ControlNode:
    """The guarded subtree to relocate: the apply plus any enclosing Ifs
    whose entire body is just this chain (e.g. ``if valid(dhcp)
    apply(ACL_DHCP)``)."""
    unit: ControlNode = apply_node
    while True:
        parent = parents.get(id(unit))
        if (
            isinstance(parent, If)
            and parent.then_node is unit
            and parent.else_node is None
        ):
            unit = parent
            continue
        return unit


def _enclosing_unit(
    node: ControlNode, parents: Dict[int, ControlNode]
) -> ControlNode:
    """Climb through If wrappers to the element sitting in a Seq."""
    unit = node
    while True:
        parent = parents.get(id(unit))
        if isinstance(parent, If):
            unit = parent
            continue
        return unit


def _guard_validity(
    node: ControlNode, parents: Dict[int, ControlNode]
) -> Optional[Set[Tuple[str, bool]]]:
    """Validity constraints from the guards enclosing ``node``.

    Returns None when a guard is not a plain validity test (we cannot
    reason about arbitrary conditions with the parser alone).
    """
    constraints: Set[Tuple[str, bool]] = set()
    current = node
    while True:
        parent = parents.get(id(current))
        if parent is None:
            return constraints
        if isinstance(parent, If):
            cond = parent.condition
            if isinstance(cond, ValidExpr):
                if parent.then_node is current:
                    constraints.add((cond.header, True))
                else:
                    constraints.add((cond.header, False))
            elif isinstance(cond, LNot) and isinstance(
                cond.operand, ValidExpr
            ):
                if parent.then_node is current:
                    constraints.add((cond.operand.header, False))
                else:
                    constraints.add((cond.operand.header, True))
            else:
                return None
        if isinstance(parent, Apply):
            # Inside someone's hit/miss branch: runtime-dependent guard.
            return None
        current = parent


def _implies(
    program: Program,
    premise: Set[Tuple[str, bool]],
    conclusion: Set[Tuple[str, bool]],
) -> bool:
    """Does ``premise`` imply ``conclusion`` for every parseable packet?"""
    if program.parser is None:
        return conclusion <= premise
    for header_set in program.parser.valid_header_sets():
        if all((h in header_set) == v for h, v in premise):
            if not all((h in header_set) == v for h, v in conclusion):
                return False
    return True


def remove_dependency(program: Program, dep: Dependency) -> Program:
    """Apply the §3.2 rewrite: ``dep.dst`` runs only if ``dep.src`` misses.

    Raises :class:`OptimizationError` carrying the :class:`Reason` when
    the rewrite cannot be proven safe (non-adjacent sites, non-validity
    guards, or the consumer's guard not implying the source's).
    """
    root = program.ingress
    apply_src = find_apply(root, dep.src)
    apply_dst = find_apply(root, dep.dst)
    if apply_src is None or apply_dst is None:
        raise OptimizationError(Reason.TABLES_NOT_FOUND)
    parents = _parents(root)

    dst_unit = _relocation_unit(root, apply_dst, parents)
    src_unit = _enclosing_unit(apply_src, parents)
    dst_outer = _enclosing_unit(dst_unit, parents)

    seq = parents.get(id(src_unit))
    if not isinstance(seq, Seq) or parents.get(id(dst_outer)) is not seq:
        raise OptimizationError(Reason.NOT_SIBLINGS)
    if dst_outer is not dst_unit:
        raise OptimizationError(Reason.NOT_RELOCATABLE)
    positions = [id(node) for node in seq.nodes]
    if positions.index(id(dst_unit)) != positions.index(id(src_unit)) + 1:
        raise OptimizationError(Reason.NOT_ADJACENT)

    src_guard = _guard_validity(apply_src, parents)
    dst_guard = _guard_validity(apply_dst, parents)
    if src_guard is None or dst_guard is None:
        raise OptimizationError(Reason.GUARDS_NOT_VALIDITY)
    if not _implies(program, dst_guard, src_guard):
        raise OptimizationError(Reason.GUARD_NOT_IMPLIED)

    # Build the rewritten tree: dst_unit moves into apply_src.on_miss and
    # disappears from the sequence.  Removing it path-copies only its
    # ancestors, so apply_src is still the node to replace afterwards.
    if apply_src.on_miss is None:
        on_miss = dst_unit
    else:
        on_miss = Seq([apply_src.on_miss, dst_unit])
    return program.with_ingress(
        replace_subtree(
            remove_subtree(root, dst_unit),
            apply_src,
            replace(apply_src, on_miss=on_miss),
        )
    )


def run_phase(
    program: Program,
    compile_result: CompileResult,
    profile: Profile,
) -> PassResult:
    """Remove a single unmanifested dependency (the paper removes one at a
    time to keep changes tractable for the programmer): one decision per
    critical candidate, up to the one removed."""
    decisions: List[Decision] = []
    for dep in critical_candidates(compile_result):
        reason = _profile_refusal(dep, profile)
        if reason is None:
            try:
                rewritten = remove_dependency(program, dep)
            except OptimizationError as exc:
                reason = exc.args[0]
        verdict = Verdict.ACCEPTED if reason is None else Verdict.REJECTED
        decisions.append(
            Decision(Phase.REMOVE_DEPENDENCIES, verdict, dep, reason)
        )
        if reason is None:
            return PassResult(tuple(decisions), program=rewritten)
    return PassResult(tuple(decisions))


@dataclass
class DependencyRemovalPass:
    """Phase 2 as an :class:`~repro.core.passes.OptimizationPass`.

    Each round removes at most one unmanifested dependency (the paper
    removes one at a time to keep changes tractable); ``max_rounds``
    bounds how many the manager lets through.
    """

    max_rounds: int = 8
    name: str = dc_field(default="remove-dependencies", init=False)
    phase: Phase = dc_field(default=Phase.REMOVE_DEPENDENCIES, init=False)

    def run(self, ctx: OptimizationContext) -> PassResult:
        # The round's two probes: compile, then replay, the current
        # program.
        compiled = ctx.compile()
        profile = ctx.profile()
        result = run_phase(ctx.program, compiled, profile)
        if result.program is not None:
            # A licensed relocation replays step for step like its
            # parent on this trace (module docstring).
            ctx.adopt_profile(result.program, profile)
        return result
