"""The static analyses against naive references, and their work bounds.

:class:`~repro.analysis.control_graph.ControlGraph` walks the control
tree once: it prunes a branch the parser cannot produce as soon as its
validity literal is added, folds only the pairs a completed path adds
past the prefix it shares with the previous one, and derives a
branch-free table's miss from its hit's walk.  It yields each distinct
(table A outcome, table B outcome, B's guards after A) key once, and
:func:`~repro.analysis.dependencies.build_dependency_graph` folds each
of those once.  None of it may show in the output, so over every
bundled program and the fuzz generator's CI corpus, ingress and egress,
both are held to the references below:

* :func:`reference_paths` enumerates every completion, contradictory or
  not, and only then filters by the parser;
* :func:`reference_keys` is the per-path loop over every ordered pair of
  applies on every path of the reference, keeping each key the first
  time it is met;
* :func:`reference_dependencies` is the per-path triple loop, building
  every pair's causes on every path of the reference.

None of them calls into ``repro.analysis`` or shares its types.  The
last group counts work without a clock: no infeasible path is ever
completed, enterprise completes 12 of its 442 paths, no key's causes
are built twice, and the ``MAX_PATHS`` cap counts only what the walk
actually visits.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Set, Tuple

import pytest

import repro.analysis.control_graph as control_graph_module
import repro.analysis.dependencies as dependencies_module
from repro.analysis.control_graph import ControlGraph
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
from repro.programs import enterprise, example_firewall

from .test_program_values import CORPUS, corpus_program

# ----------------------------------------------------------------------
# The references


class CondEvent(NamedTuple):
    """A condition evaluated along a path."""

    expr: object
    taken: bool


class ApplyEvent(NamedTuple):
    """A table applied along a path: its outcome, and the positions in
    the path of the conditions whose branch encloses it."""

    table: str
    hit: bool
    guard_positions: Tuple[int, ...]


class ExecutionPath(NamedTuple):
    events: List[object]
    validity: Dict[str, bool]


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


def _pair_keys(path):
    """Each (A, B) pair of one path in loop order, with its fold key: a
    guard is keyed by its ``If`` condition node, which every path through
    that ``If`` shares, and is "after A" by its position on the path."""
    applies = [
        (i, e) for i, e in enumerate(path.events) if isinstance(e, ApplyEvent)
    ]
    for n, (i, ev_a) in enumerate(applies):
        for _j, ev_b in applies[n + 1 :]:
            if ev_a.table == ev_b.table:
                continue
            guards = tuple(
                id(path.events[pos].expr)
                for pos in ev_b.guard_positions
                if pos > i
            )
            yield i, ev_a, ev_b, (
                ev_a.table, ev_a.hit, ev_b.table, ev_b.hit, guards
            )


def reference_keys(program: Program, control) -> List[tuple]:
    """Every distinct fold key, in the order the per-path loop first
    meets it."""
    keys: Dict[tuple, None] = {}
    for path in reference_paths(program, control):
        for *_pair, key in _pair_keys(path):
            keys.setdefault(key, None)
    return list(keys)


def _by_identity(keys) -> List[tuple]:
    return [(a, ah, b, bh, tuple(map(id, g))) for a, ah, b, bh, g in keys]


def pipelines(program: Program):
    yield program.ingress
    if program.egress is not None:
        yield program.egress


# ----------------------------------------------------------------------
# Equal to the references


def _applies_by_identity(events) -> Tuple[tuple, ...]:
    """A path's applies, each with its outcome and guard conditions."""
    return tuple(
        (
            e.table,
            e.hit,
            tuple(id(events[pos].expr) for pos in e.guard_positions),
        )
        for e in events
        if isinstance(e, ApplyEvent)
    )


def _walked_paths(monkeypatch) -> List[Tuple[tuple, ...]]:
    """Record each path the walk completes, as :func:`_applies_by_identity`
    would see it."""
    walked: List[Tuple[tuple, ...]] = []
    complete = ControlGraph._complete

    def recording(self, path, *args):
        walked.append(tuple(
            (table, hit, tuple(map(id, guards)))
            for table, hit, _positions, guards in (
                e for e in path if type(e) is tuple
            )
        ))
        return complete(self, path, *args)

    monkeypatch.setattr(ControlGraph, "_complete", recording)
    return walked


@pytest.mark.parametrize("case_id", CORPUS)
def test_paths_equal_the_enumerate_then_filter_reference(case_id, monkeypatch):
    """Every path the walk completes is a parser-feasible path of the
    reference, and the apply sites it reaches are the reference's."""
    program = corpus_program(case_id)
    walked = _walked_paths(monkeypatch)
    for control in pipelines(program):
        walked.clear()
        cg = ControlGraph(program, control)
        paths = {
            _applies_by_identity(p.events)
            for p in reference_paths(program, control)
        }
        assert walked and set(walked) <= paths
        assert set(cg.sites) == {
            (table, guards) for path in paths for table, _hit, guards in path
        }


@pytest.mark.parametrize("case_id", CORPUS)
def test_keys_equal_the_reference_keys_in_first_met_order(case_id):
    program = corpus_program(case_id)
    for control in pipelines(program):
        keys = ControlGraph(program, control).keys
        assert _by_identity(keys) == reference_keys(program, control)


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
    """On enterprise the per-path loop meets each key more than ten
    times on average, so the equalities above are not vacuous."""
    program = enterprise.build_program()
    paths = reference_paths(program, program.ingress)
    visits = sum(1 for path in paths for _pair in _pair_keys(path))
    assert len(reference_keys(program, program.ingress)) * 10 < visits


# ----------------------------------------------------------------------
# Work bounds, without a clock


def test_no_infeasible_path_is_ever_completed(monkeypatch):
    """Every path the walk completes is a parser-feasible path of the
    reference: a branch the parser cannot produce is never walked."""
    program = enterprise.build_program()
    walked = _walked_paths(monkeypatch)
    ControlGraph(program)
    feasible = {
        _applies_by_identity(p.events)
        for p in reference_paths(program, program.ingress)
    }
    assert walked and set(walked) <= feasible


@pytest.mark.parametrize(
    "module, walked, paths",
    [(enterprise, 12, 442), (example_firewall, 6, 111)],
)
def test_the_walk_completes_a_fraction_of_the_paths(
    module, walked, paths, monkeypatch
):
    """Only the hit of a branch-free table is walked, so enterprise
    completes 12 paths where the reference enumerates 442."""
    program = module.build_program()
    completed = _walked_paths(monkeypatch)
    ControlGraph(program)
    assert len(completed) == walked
    assert len(reference_paths(program, program.ingress)) == paths


def test_each_distinct_pair_is_folded_once(monkeypatch):
    """Causes are built per distinct key, never per path visit."""
    program = enterprise.build_program()
    paths = reference_paths(program, program.ingress)
    causes = {}
    for path in paths:
        for i, ev_a, ev_b, key in _pair_keys(path):
            causes.setdefault(
                key, _pair_causes(program, path, i, ev_a, ev_b)
            )
    built: List[DependencyCause] = []

    def counting(*args, **kwargs):
        cause = DependencyCause(*args, **kwargs)
        if cause.kind is not DependencyKind.SUCCESSOR:
            built.append(cause)
        return cause

    monkeypatch.setattr(dependencies_module, "DependencyCause", counting)
    build_dependency_graph(program)
    assert 0 < len(built) <= sum(len(found) for found in causes.values())


def _condition_chain(length: int) -> Program:
    """Two parser-exclusive headers, each guarding a keyed table, then
    ``length`` keyed tables each under a condition that tests no
    validity, so the walk takes both of its branches."""
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
    for n in range(length):
        b.table(f"x{n}", keys=[("eth.kind", "exact")], actions=["d"])
        nodes.append(
            If(BinOp("==", FieldRef("eth", "kind"), Const(n)), Apply(f"x{n}"))
        )
    b.ingress(Seq(nodes))
    return b.build()


def test_max_paths_counts_only_what_the_walk_visits(monkeypatch):
    """The cap is on the events the walk pushes onto its path.

    The two validity guards leave three walked prefixes (a valid, b
    valid, neither) over 7 events; the pair with both headers valid is
    never walked, and neither is any table's miss.  Each condition of
    the chain then doubles the prefixes and pushes three events per
    prefix (taken: the condition and its table's hit; untaken: the
    condition): ``7 + 9 * (2**n - 1)`` events in all."""
    monkeypatch.setattr(control_graph_module, "MAX_PATHS", 7 + 9 * (2**3 - 1))
    walked = _walked_paths(monkeypatch)
    ControlGraph(_condition_chain(3))
    assert len(walked) == 3 * 2**3
    with pytest.raises(ReproError, match="pushes more than 70 events"):
        ControlGraph(_condition_chain(4))
