"""Control-graph analysis: one walk of the control tree yields its pair keys.

The compiler output the paper relies on includes "the control graph,
containing all possible execution paths packets may take through the
program" (§2.1).  Dependency analysis needs only what those paths say
about pairs of applies: for every two tables some packet applies in
order, their hit/miss outcomes and the guard conditions evaluated
between them.  :class:`ControlGraph` walks the tree depth-first, keeping
one path and extending it in place (push on the way down, pop on
backtrack), and prunes each branch the parser makes impossible (e.g. a
packet that is simultaneously DNS and DHCP) the moment its validity
literal is added.  Two rules keep the walk far below the path count:

* when a path completes, only the pairs whose later apply lies past the
  prefix it shares with the previous completed path are new;
* a keyed table with no hit or miss branch continues the same way after
  either outcome, so only its hit is walked: its miss's pairs are
  derived from the prefix before it and the applies its hit reached.

``enterprise`` completes 12 paths instead of 442.  The walk is still
exponential in the branches it must walk (hit/miss bodies, conditions
that test no validity), which is fine at the scale of real pipeline
programs; ``MAX_PATHS`` caps the events it pushes.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Optional, Tuple

from repro.exceptions import ReproError
from repro.p4.control import Apply, ControlNode, If, Seq
from repro.p4.expressions import Expr, LAnd, LNot, ValidExpr
from repro.p4.program import Program

#: Hard cap on the events (conditions and applies) the walk pushes onto
#: its path.  Pruned branches and derived misses are never walked, so
#: they do not count.
MAX_PATHS = 200_000

#: ``(A table, A hit, B table, B hit, B's guard conditions after A)``.
PairKey = Tuple[str, bool, str, bool, Tuple[Expr, ...]]


def _validity_literal(expr: Expr) -> Optional[Tuple[str, bool]]:
    """If ``expr`` is valid(h) or not valid(h), return (h, polarity)."""
    if isinstance(expr, ValidExpr):
        return (expr.header, True)
    if isinstance(expr, LNot) and isinstance(expr.operand, ValidExpr):
        return (expr.operand.header, False)
    return None


def _literals_when_true(expr: Expr) -> Tuple[Tuple[str, bool], ...]:
    """Validity facts implied by the expression evaluating to true.

    A conjunction implies every conjunct's facts (``not valid(udp) and
    ttl == 1`` implies udp is invalid); other shapes imply nothing
    beyond a bare literal.  Used on the taken branch only — the untaken
    branch of a conjunction implies nothing.
    """
    literal = _validity_literal(expr)
    if literal is not None:
        return (literal,)
    if isinstance(expr, LAnd):
        return _literals_when_true(expr.left) + _literals_when_true(
            expr.right
        )
    return ()


def _ids(exprs: Tuple[Expr, ...]) -> Tuple[int, ...]:
    # Guards are told apart by their ``If`` condition object, which every
    # path through that ``If`` shares; the tree keeps it alive.
    return tuple(map(id, exprs))


class ControlGraph:
    """What the parser-feasible execution paths of one control pipeline
    (the ingress by default) say about its applies.

    ``keys`` holds each distinct :data:`PairKey` once, in the order a
    loop over every feasible path (in depth-first order, taken before
    untaken, hit before miss) and every ordered pair of applies on it
    first meets it; ``sites`` each reachable ``(table, guard conditions)``
    apply site.  A value: it keeps what the walk read of the program (the
    control tree, the parser's header sets, which tables are keyless),
    never the program, so one graph serves every program of the same
    structure (:func:`repro.analysis.structure.structure_key`)."""

    def __init__(self, program: Program, control: Optional[ControlNode] = None):
        self.control = control if control is not None else program.ingress
        self._valid_sets = (
            program.parser.valid_header_sets() if program.parser else []
        )
        # A keyless table can never hold entries, so it always misses.
        self._keyless = {
            name for name, table in program.tables.items() if not table.keys
        }
        self._count = 0
        self.keys: List[PairKey] = []
        self.sites: Dict[Tuple[str, Tuple[int, ...]], Tuple[Expr, ...]] = {}
        self._seen: set = set()
        self._walk()

    # ------------------------------------------------------------------
    def _feasible(self, validity: Dict[str, bool]) -> bool:
        """Is this validity assignment producible by the parser?

        With no parser (fragment analysis) everything is feasible.
        """
        if not self._valid_sets:
            return True
        for header_set in self._valid_sets:
            if all(
                (header in header_set) == required
                for header, required in validity.items()
            ):
                return True
        return False

    def _constrain(
        self,
        validity: Dict[str, bool],
        added: List[str],
        literals: Tuple[Tuple[str, bool], ...],
    ) -> bool:
        """Add ``literals`` to ``validity`` (each new header onto
        ``added``); False when the result is contradictory or not
        producible by the parser."""
        for header, required in literals:
            have = validity.get(header)
            if have is None:
                validity[header] = required
                added.append(header)
            elif have != required:
                return False
        return self._feasible(validity)

    def _add(self, a, a_hit, b, b_hit, guards: Tuple[Expr, ...]) -> None:
        if a == b:
            return
        seen = (a, a_hit, b, b_hit, _ids(guards))
        if seen not in self._seen:
            self._seen.add(seen)
            self.keys.append((a, a_hit, b, b_hit, guards))

    def _push(self, path: list, event) -> None:
        path.append(event)
        self._count += 1
        if self._count > MAX_PATHS:
            raise ReproError(
                f"control graph walk pushes more than {MAX_PATHS} events "
                "onto its path; program too branchy for exhaustive analysis"
            )

    def _walk(self) -> None:
        """Depth-first over the tree with one path, grown and cut in place.

        ``path`` holds a condition's expression or an apply's ``(table,
        hit, guard positions, guard conditions)``; guard positions index
        ``path``.  A continuation ``(node, guard positions, guard
        conditions, rest)`` is what is left to walk.  ``pending`` holds
        the alternatives not yet taken, last first, each with the path
        and validity lengths to cut back to; an alternative with
        ``None`` literals derives the miss of the table whose hit it
        follows.  ``derived`` holds, for each such table on the path, its
        position and the applies walked after it so far.
        """
        path: list = []
        validity: Dict[str, bool] = {}
        added: List[str] = []
        derived: List[Tuple[int, dict]] = []
        low = 0  # path[:low] is shared with the last completed path
        pending: list = [(0, 0, None, (), (self.control, (), (), None))]
        while pending:
            length, n_added, event, literals, cont = pending.pop()
            del path[length:]
            while len(added) > n_added:
                del validity[added.pop()]
            low = min(low, length)
            if literals is None:
                self._derive(path, event, derived)
                continue
            # A branch the parser cannot produce is dropped here: no
            # later constraint can make it feasible again.
            if literals and not self._constrain(validity, added, literals):
                continue
            if event is not None:
                self._push(path, event)
            while cont is not None:
                node, gpos, gexprs, rest = cont
                if isinstance(node, Seq):
                    for child in reversed(node.nodes):
                        rest = (child, gpos, gexprs, rest)
                    cont = rest
                    continue
                here = (len(path), len(added))
                if isinstance(node, If):
                    cond = node.condition
                    inner = (gpos + (len(path),), gexprs + (cond,))
                    literal = _validity_literal(cond)
                    untaken = (
                        () if literal is None
                        else ((literal[0], not literal[1]),)
                    )
                    orelse = (
                        rest if node.else_node is None
                        else (node.else_node, *inner, rest)
                    )
                    pending.append((*here, cond, untaken, orelse))
                    pending.append((
                        *here, cond, _literals_when_true(cond),
                        (node.then_node, *inner, rest),
                    ))
                    break
                if not isinstance(node, Apply):
                    raise ReproError(f"unknown control node {node!r}")
                table = node.table
                self.sites.setdefault((table, _ids(gexprs)), gexprs)
                miss = (table, False, gpos, gexprs)
                on_miss = (
                    rest if node.on_miss is None
                    else (node.on_miss, gpos, gexprs, rest)
                )
                if table in self._keyless:
                    self._push(path, miss)
                    cont = on_miss
                    continue
                hit = (table, True, gpos, gexprs)
                if node.on_hit is None and node.on_miss is None:
                    # Either outcome continues the same way: walk the
                    # hit, then derive the miss.
                    pending.append((*here, miss, None, None))
                    derived.append((len(path), {}))
                    self._push(path, hit)
                    cont = rest
                    continue
                pending.append((*here, miss, (), on_miss))
                pending.append((
                    *here, hit, (),
                    rest if node.on_hit is None
                    else (node.on_hit, gpos, gexprs, rest),
                ))
                break
            else:
                self._complete(path, low, derived)
                low = len(path)

    def _complete(self, path: list, low: int, derived) -> None:
        """Fold a completed path: the pairs whose later apply lies at
        ``low`` or past it, and each open derivation's new applies."""
        applies = [(i, e) for i, e in enumerate(path) if type(e) is tuple]
        first_new = next(
            (n for n, (j, _e) in enumerate(applies) if j >= low),
            len(applies),
        )
        for n, (i, (a, a_hit, _gpos, _gexprs)) in enumerate(applies):
            for _j, (b, b_hit, gpos, gexprs) in applies[
                max(n + 1, first_new):
            ]:
                self._add(a, a_hit, b, b_hit, gexprs[bisect_right(gpos, i):])
        for d, after in derived:
            for j, (b, b_hit, gpos, gexprs) in applies[first_new:]:
                if j > d:
                    guards = gexprs[bisect_right(gpos, d):]
                    after.setdefault((b, b_hit, _ids(guards)), guards)

    def _derive(self, path: list, event, derived) -> None:
        """Add a branch-free table's miss pairs once its hit is walked:
        (each apply before it, its miss), then (its miss, each apply its
        hit reached), in the order those applies were first met."""
        table, _hit, gpos, gexprs = event
        _position, after = derived.pop()
        for i, e in enumerate(path):
            if type(e) is tuple:
                self._add(e[0], e[1], table, False,
                          gexprs[bisect_right(gpos, i):])
        for (b, b_hit, _guard_ids), guards in after.items():
            self._add(table, False, b, b_hit, guards)
        for d, outer in derived:
            guards = gexprs[bisect_right(gpos, d):]
            outer.setdefault((table, False, _ids(guards)), guards)

    # ------------------------------------------------------------------
    # Queries

    def may_coexecute(self, table_a: str, table_b: str) -> bool:
        """Can both tables be applied to the same packet?"""
        return any(
            {a, b} == {table_a, table_b} for a, _ah, b, _bh, _g in self.keys
        )
