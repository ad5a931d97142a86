"""The static analyses against naive references, and their work bounds.

:class:`~repro.analysis.control_graph.ControlGraph` prunes a branch the
parser cannot produce as soon as its validity literal is added, and
:func:`~repro.analysis.dependencies.build_dependency_graph` folds each
distinct (table A outcome, table B outcome, B's guards after A) key once
instead of once per path.  Both must be invisible in the output, so over
every bundled program and the fuzz generator's CI corpus, ingress and
egress, they are held to the references below:

* :func:`reference_paths` enumerates every completion, contradictory or
  not, and only then filters by the parser;
* :func:`reference_dependencies` is the per-path triple loop over every
  ordered pair of applies on every path of the reference.

Neither calls into ``repro.analysis``; they share only its data types.
The last group counts work without a clock: no infeasible path is ever
completed, no key's causes are built twice, and the ``MAX_PATHS`` cap
counts only what the walk actually visits.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

import pytest

import repro.analysis.control_graph as control_graph_module
import repro.analysis.dependencies as dependencies_module
from repro.analysis.control_graph import (
    ApplyEvent,
    CondEvent,
    ControlGraph,
    ExecutionPath,
)
from repro.analysis.dependencies import (
    Dependency,
    DependencyCause,
    DependencyKind,
    build_dependency_graph,
)
from repro.exceptions import ReproError
from repro.p4 import (
    Apply,
    Drop,
    If,
    LNot,
    ModifyField,
    ProgramBuilder,
    Seq,
    ValidExpr,
)
from repro.p4.expressions import (
    BinOp,
    Const,
    FieldRef,
    LAnd,
    LOr,
    ParamRef,
    RegisterSize,
)
from repro.p4.program import Program
from repro.programs import enterprise

from .test_program_values import CORPUS, corpus_program

# ----------------------------------------------------------------------
# The references


def _implied(condition, taken: bool) -> List[Tuple[str, bool]]:
    """Validity literals a branch implies: the taken branch of a
    conjunction implies each conjunct's, an untaken bare literal its
    negation, anything else nothing."""
    if isinstance(condition, ValidExpr):
        return [(condition.header, taken)]
    if isinstance(condition, LNot) and isinstance(condition.operand, ValidExpr):
        return [(condition.operand.header, not taken)]
    if taken and isinstance(condition, LAnd):
        return _implied(condition.left, True) + _implied(condition.right, True)
    return []


def reference_paths(program: Program, control) -> List[ExecutionPath]:
    """Every completion of the control tree, then the parser filter."""
    keyless = {name for name, t in program.tables.items() if not t.keys}

    def walk(node, events, literals, guards):
        if isinstance(node, Seq):
            partials = [(events, literals)]
            for child in node.nodes:
                partials = [
                    done
                    for evs, lits in partials
                    for done in walk(child, evs, lits, guards)
                ]
            return partials
        if isinstance(node, If):
            done = []
            for taken in (True, False):
                evs = events + [CondEvent(node.condition, taken)]
                lits = literals + _implied(node.condition, taken)
                body = node.then_node if taken else node.else_node
                if body is None:
                    done.append((evs, lits))
                else:
                    done += walk(body, evs, lits, guards + (len(evs) - 1,))
            return done
        done = []
        for hit in (False,) if node.table in keyless else (True, False):
            evs = events + [ApplyEvent(node.table, hit, guards)]
            body = node.on_hit if hit else node.on_miss
            if body is None:
                done.append((evs, literals))
            else:
                done += walk(body, evs, literals, guards)
        return done

    header_sets = program.parser.valid_header_sets() if program.parser else []
    paths = []
    for events, literals in walk(control, [], [], ()):
        validity: Dict[str, bool] = {}
        for header, required in literals:
            validity.setdefault(header, required)
        if len(set(literals)) != len(set(header for header, _ in literals)):
            continue  # one header both valid and invalid
        if header_sets and not any(
            all((h in hs) == want for h, want in validity.items())
            for hs in header_sets
        ):
            continue
        paths.append(ExecutionPath(events=events, validity=validity))
    return paths


def _reads(expr) -> Set[FieldRef]:
    if isinstance(expr, FieldRef):
        return {expr}
    if isinstance(expr, (Const, ParamRef, RegisterSize, ValidExpr)):
        return set()
    if isinstance(expr, LNot):
        return _reads(expr.operand)
    assert isinstance(expr, (BinOp, LAnd, LOr)), expr
    return _reads(expr.left) | _reads(expr.right)


def _outcome_actions(program: Program, table: str, hit: bool):
    t = program.tables[table]
    return t.actions if hit else (t.default_action,)


def _pair_causes(program, path, i, ev_a, ev_b) -> List[DependencyCause]:
    """Every cause of one (A, B) visit on one path."""
    actions = program.actions
    b_match = {k.field for k in program.tables[ev_b.table].keys}
    for pos in ev_b.guard_positions:
        if pos > i:
            b_match |= _reads(path.events[pos].expr)
    a_match = {k.field for k in program.tables[ev_a.table].keys}
    out = []
    for a_name in _outcome_actions(program, ev_a.table, ev_a.hit):
        a = actions[a_name]
        a_regs = a.registers_read() | a.registers_written()
        if a.writes() & b_match:
            out.append(DependencyCause(
                DependencyKind.MATCH, a_name, None,
                frozenset(f.path for f in a.writes() & b_match),
            ))
        for b_name in _outcome_actions(program, ev_b.table, ev_b.hit):
            b = actions[b_name]
            shared = a.writes() & (b.writes() | b.reads())
            regs = a_regs & (b.registers_read() | b.registers_written())
            if shared or regs:
                out.append(DependencyCause(
                    DependencyKind.ACTION, a_name, b_name,
                    frozenset(f.path for f in shared), frozenset(regs),
                ))
            anti = b.writes() & (a_match | a.reads())
            if anti:
                out.append(DependencyCause(
                    DependencyKind.REVERSE, a_name, b_name,
                    frozenset(f.path for f in anti),
                ))
    return out


def _nested_applies(node):
    if isinstance(node, Seq):
        for child in node.nodes:
            yield from _nested_applies(child)
    elif isinstance(node, If):
        yield from _nested_applies(node.then_node)
        if node.else_node is not None:
            yield from _nested_applies(node.else_node)
    elif isinstance(node, Apply):
        yield node
        for body in (node.on_hit, node.on_miss):
            if body is not None:
                yield from _nested_applies(body)


def reference_dependencies(
    program: Program, control
) -> Dict[Tuple[str, str], Dependency]:
    """The TDG, one cause set per ordered pair of applies per path."""
    causes: Dict[Tuple[str, str], Set[DependencyCause]] = {}
    for path in reference_paths(program, control):
        applies = [
            (i, e) for i, e in enumerate(path.events)
            if isinstance(e, ApplyEvent)
        ]
        for n, (i, ev_a) in enumerate(applies):
            for _j, ev_b in applies[n + 1 :]:
                if ev_a.table == ev_b.table:
                    continue
                for cause in _pair_causes(program, path, i, ev_a, ev_b):
                    causes.setdefault((ev_a.table, ev_b.table), set()).add(
                        cause
                    )
    for outer in _nested_applies(control):
        for body in (outer.on_hit, outer.on_miss):
            if body is None:
                continue
            for inner in _nested_applies(body):
                causes.setdefault((outer.table, inner.table), set()).add(
                    DependencyCause(
                        DependencyKind.SUCCESSOR, "<apply>", None, frozenset()
                    )
                )
    rank = {
        DependencyKind.MATCH: 3, DependencyKind.ACTION: 2,
        DependencyKind.REVERSE: 1, DependencyKind.SUCCESSOR: 0,
    }
    graph = {}
    for (src, dst), found in causes.items():
        ordered = tuple(sorted(
            found,
            key=lambda c: (
                -rank[c.kind], c.src_action, c.dst_action or "",
                sorted(c.fields),
            ),
        ))
        graph[(src, dst)] = Dependency(src, dst, ordered[0].kind, ordered)
    return graph


def pipelines(program: Program):
    yield program.ingress
    if program.egress is not None:
        yield program.egress


# ----------------------------------------------------------------------
# Equal to the references


@pytest.mark.parametrize("case_id", CORPUS)
def test_paths_equal_the_enumerate_then_filter_reference(case_id):
    program = corpus_program(case_id)
    for control in pipelines(program):
        assert ControlGraph(program, control).paths == reference_paths(
            program, control
        )


@pytest.mark.parametrize("case_id", CORPUS)
def test_dependency_graph_equals_the_per_path_reference(case_id):
    program = corpus_program(case_id)
    for control in pipelines(program):
        built = build_dependency_graph(program, control=control).dependencies
        expected = reference_dependencies(program, control)
        # Same keys in the same order, same kind, same ordered causes.
        assert list(built) == list(expected)
        assert built == expected


def _guarded_twice() -> Program:
    """``tb`` applied after ``ta`` under two guard chains: first under
    ``m.y == 0``, which reads nothing ``ta`` writes, then under
    ``m.x >= 1``, which reads ``ta``'s output.  Only the second chain
    makes ``ta -> tb`` a MATCH dependency, and paths visit it second.

    ``Program.validate`` allows one apply per table, which fixes the
    guards after A for each pair; the analyses take any control tree,
    so the tree is swapped into the built (frozen, validated) program
    underneath its guard."""
    b = ProgramBuilder("guarded_twice")
    b.header_type("h_t", [("f", 16)]).header("h", "h_t")
    b.metadata("m", [("x", 8), ("y", 8)])
    b.action("bump", [ModifyField(FieldRef("m", "x"), Const(1))])
    b.action("d", [Drop()])
    b.table("ta", keys=[("h.f", "exact")], actions=["bump"])
    b.table("tb", keys=[("h.f", "exact")], actions=["d"])
    b.ingress(Seq([Apply("ta"), Apply("tb")]))
    program = b.build()
    object.__setattr__(
        program,
        "ingress",
        Seq([
            Apply("ta"),
            If(
                BinOp("==", FieldRef("m", "y"), Const(0)),
                Apply("tb"),
                If(BinOp(">=", FieldRef("m", "x"), Const(1)), Apply("tb")),
            ),
        ]),
    )
    return program


def _misses_differ() -> Program:
    """``ta`` then ``tb``, each with a miss action none of its hit
    actions matches: ``ta``'s miss writes the field ``tb`` matches on,
    ``tb``'s miss the field ``ta`` matches on.  Paths visit hits
    first, so only the misses' visits add those causes."""
    b = ProgramBuilder("misses_differ")
    b.header_type("h_t", [("f", 16)]).header("h", "h_t")
    b.metadata("m", [("x", 8)])
    b.action("bump", [ModifyField(FieldRef("m", "x"), Const(1))])
    b.action("rewrite", [ModifyField(FieldRef("h", "f"), Const(0))])
    b.action("d", [Drop()])
    b.table(
        "ta", keys=[("h.f", "exact")], actions=["bump"],
        default_action="rewrite",
    )
    b.table(
        "tb", keys=[("h.f", "exact")], actions=["d"],
        default_action="rewrite",
    )
    b.ingress(Seq([Apply("ta"), Apply("tb")]))
    return b.build()


@pytest.mark.parametrize(
    "make, src_action, dst_action",
    [
        # The guards after A: ``m.x >= 1`` only on the second chain.
        (_guarded_twice, "bump", None),
        # A's outcome: only ta's miss writes what tb matches on.
        (_misses_differ, "rewrite", None),
        # B's outcome: only tb's miss writes what ta matches on.
        (_misses_differ, "bump", "rewrite"),
    ],
)
def test_every_term_of_the_fold_key_matters(make, src_action, dst_action):
    """Each term of a pair's key adds a cause the first visit of the
    pair (A, B) alone would miss."""
    program = make()
    built = build_dependency_graph(program).dependencies
    assert built == reference_dependencies(program, program.ingress)
    assert any(
        (cause.src_action, cause.dst_action) == (src_action, dst_action)
        for cause in built[("ta", "tb")].causes
    )


def test_the_references_see_infeasible_and_repeated_work():
    """On enterprise the two references do the work the analyses skip,
    so the equalities above are not vacuous."""
    program = enterprise.build_program()
    paths = reference_paths(program, program.ingress)
    assert len(ControlGraph(program).paths) == len(paths) > 0
    visits, keys = _pair_visits(program, paths)
    assert len(keys) < visits


# ----------------------------------------------------------------------
# Work bounds, without a clock


def _pair_visits(program, paths):
    """(pair visits, distinct fold keys) of the per-path loop.  A guard
    is keyed by its ``If`` condition node, which every path through that
    ``If`` shares."""
    visits, keys = 0, {}
    for path in paths:
        applies = [
            (i, e) for i, e in enumerate(path.events)
            if isinstance(e, ApplyEvent)
        ]
        for n, (i, ev_a) in enumerate(applies):
            for _j, ev_b in applies[n + 1 :]:
                if ev_a.table == ev_b.table:
                    continue
                visits += 1
                guards = tuple(
                    id(path.events[pos].expr)
                    for pos in ev_b.guard_positions
                    if pos > i
                )
                key = (ev_a.table, ev_a.hit, ev_b.table, ev_b.hit, guards)
                keys.setdefault(key, _pair_causes(program, path, i, ev_a, ev_b))
    return visits, keys


def test_no_infeasible_path_is_ever_completed(monkeypatch):
    """Every path the walk finishes is one ``ControlGraph.paths`` keeps."""
    completions: List[int] = []
    depth = [0]
    walk = ControlGraph._walk

    def counting(self, *args):
        depth[0] += 1
        try:
            done = walk(self, *args)
        finally:
            depth[0] -= 1
        if depth[0] == 0:
            completions.append(len(done))
        return done

    monkeypatch.setattr(ControlGraph, "_walk", counting)
    cg = ControlGraph(enterprise.build_program())
    assert completions == [len(cg.paths)]


def test_each_distinct_pair_is_folded_once(monkeypatch):
    """Causes are built per distinct key, never per path visit."""
    program = enterprise.build_program()
    cg = ControlGraph(program)
    visits, keys = _pair_visits(program, cg.paths)
    built: List[DependencyCause] = []

    def counting(*args, **kwargs):
        cause = DependencyCause(*args, **kwargs)
        if cause.kind is not DependencyKind.SUCCESSOR:
            built.append(cause)
        return cause

    monkeypatch.setattr(dependencies_module, "DependencyCause", counting)
    build_dependency_graph(program, control_graph=cg)
    per_key = sum(len(causes) for causes in keys.values())
    assert 0 < len(built) <= per_key
    assert len(keys) * 10 < visits  # the bound is far from per-visit


def _exclusive_features(extra_tables: int) -> Program:
    """Two parser-exclusive headers, each guarding a keyed table, then
    ``extra_tables`` keyed tables every packet applies."""
    b = ProgramBuilder("caps")
    b.header_type("e_t", [("kind", 8)]).header("eth", "e_t")
    b.header_type("x_t", [("f", 8)]).header("a", "x_t").header("b", "x_t")
    b.parser_state(
        "start", extracts=["eth"], select="eth.kind",
        transitions={1: "p_a", 2: "p_b"},
    )
    b.parser_state("p_a", extracts=["a"])
    b.parser_state("p_b", extracts=["b"])
    b.action("d", [Drop()])
    nodes = []
    for header in ("a", "b"):
        b.table(f"t_{header}", keys=[(f"{header}.f", "exact")], actions=["d"])
        nodes.append(If(ValidExpr(header), Apply(f"t_{header}")))
    for n in range(extra_tables):
        b.table(f"x{n}", keys=[("eth.kind", "exact")], actions=["d"])
        nodes.append(Apply(f"x{n}"))
    b.ingress(Seq(nodes))
    return b.build()


def test_max_paths_counts_only_what_the_walk_visits(monkeypatch):
    """The cap is on events appended to parser-feasible partial paths.

    The two guards leave five feasible paths (t_a hit / miss, t_b hit /
    miss, neither) over 10 events; each keyed table then doubles the
    paths and adds two events per path: ``10 * 2**n`` events in all.
    The branch with both headers valid is never walked, so it does not
    count towards the cap."""
    monkeypatch.setattr(control_graph_module, "MAX_PATHS", 10 * 2**3)
    assert len(ControlGraph(_exclusive_features(3)).paths) == 5 * 2**3
    with pytest.raises(ReproError, match="parser-feasible"):
        ControlGraph(_exclusive_features(4))
