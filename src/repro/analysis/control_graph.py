"""Control-graph analysis: execution paths and static mutual exclusivity.

The compiler output the paper relies on includes "the control graph,
containing all possible execution paths packets may take through the
program" (§2.1).  This module enumerates those paths with *table outcomes*
(hit/miss) attached, pruning each branch the parser makes impossible (e.g.
a packet that is simultaneously DNS and DHCP) the moment its validity
literal is added, and answers the exclusivity queries dependency analysis
and phase 2 need.

Paths are exponential in branch count, which is fine at the scale of real
pipeline programs (tens of tables); a safety cap guards against pathological
inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.exceptions import ReproError
from repro.p4.control import Apply, ControlNode, If, Seq
from repro.p4.expressions import (
    Expr,
    FieldRef,
    LNot,
    ValidExpr,
    fields_read,
)
from repro.p4.program import Program

#: Hard cap on the events the walk appends to parser-feasible partial
#: paths (programs here have < a dozen branches).  Pruned branches are
#: never walked, so they do not count.
MAX_PATHS = 200_000


@dataclass(frozen=True)
class CondEvent:
    """A condition evaluated along a path."""

    expr: Expr
    taken: bool

    @property
    def reads(self) -> FrozenSet[FieldRef]:
        return fields_read(self.expr)


@dataclass(frozen=True)
class ApplyEvent:
    """A table applied along a path, with its outcome and active guards.

    ``guard_positions`` indexes this path's event list: the CondEvents whose
    branch encloses this apply.  Hit/miss context does not appear here; it
    is visible through preceding ApplyEvents.
    """

    table: str
    hit: bool
    guard_positions: Tuple[int, ...]


@dataclass
class ExecutionPath:
    """One feasible root-to-end traversal of the ingress control tree."""

    events: List[object] = dc_field(default_factory=list)
    validity: Dict[str, bool] = dc_field(default_factory=dict)

    def fork(self) -> "ExecutionPath":
        return ExecutionPath(
            events=list(self.events), validity=dict(self.validity)
        )

    def apply_events(self) -> List[Tuple[int, ApplyEvent]]:
        return [
            (i, e) for i, e in enumerate(self.events)
            if isinstance(e, ApplyEvent)
        ]

    def tables(self) -> List[str]:
        return [e.table for _i, e in self.apply_events()]


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
    from repro.p4.expressions import LAnd

    literal = _validity_literal(expr)
    if literal is not None:
        return (literal,)
    if isinstance(expr, LAnd):
        return _literals_when_true(expr.left) + _literals_when_true(
            expr.right
        )
    return ()


class ControlGraph:
    """Enumerated, parser-feasible execution paths of one control
    pipeline (the ingress by default).

    A value: it keeps what enumeration read of the program (the control
    tree, the parser's header sets, which tables are keyless), never
    the program, so one graph serves every program of the same
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
        self.paths: List[ExecutionPath] = self._walk(
            self.control, ExecutionPath(), ()
        )

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
        literals: Tuple[Tuple[str, bool], ...],
    ) -> bool:
        """Add ``literals`` to ``validity``; False when the result is
        contradictory or not producible by the parser."""
        for header, required in literals:
            if validity.setdefault(header, required) != required:
                return False
        return self._feasible(validity)

    def _bump(self) -> None:
        self._count += 1
        if self._count > MAX_PATHS:
            raise ReproError(
                f"control graph walk exceeds {MAX_PATHS} events on "
                "parser-feasible paths; program too branchy for "
                "exhaustive analysis"
            )

    def _walk(
        self,
        node: ControlNode,
        path: ExecutionPath,
        guards: Tuple[int, ...],
    ) -> List[ExecutionPath]:
        """Extend one partial path through ``node``; returns completions.

        ``path`` is parser-feasible: a branch whose validity literal the
        parser cannot produce is dropped where the literal is added, since
        no later constraint can make it feasible again.  ``guards`` holds
        indices into *this path's* event list for the conditions currently
        enclosing the walk position.  Sequencing after a fork re-walks each
        completion independently, so indices stay consistent per path.
        """
        if isinstance(node, Seq):
            paths = [path]
            for child in node.nodes:
                next_paths: List[ExecutionPath] = []
                for p in paths:
                    next_paths.extend(self._walk(child, p, guards))
                paths = next_paths
            return paths
        if isinstance(node, If):
            literal = _validity_literal(node.condition)
            untaken_literals = (
                () if literal is None else ((literal[0], not literal[1]),)
            )
            out: List[ExecutionPath] = []
            for taken, literals in (
                (True, _literals_when_true(node.condition)),
                (False, untaken_literals),
            ):
                branch = path.fork()
                if literals and not self._constrain(branch.validity, literals):
                    continue  # the parser cannot produce this branch
                branch.events.append(
                    CondEvent(expr=node.condition, taken=taken)
                )
                self._bump()
                cond_pos = len(branch.events) - 1
                if taken:
                    out.extend(
                        self._walk(
                            node.then_node, branch, guards + (cond_pos,)
                        )
                    )
                elif node.else_node is not None:
                    out.extend(
                        self._walk(
                            node.else_node, branch, guards + (cond_pos,)
                        )
                    )
                else:
                    out.append(branch)
            return out
        if isinstance(node, Apply):
            keyless = node.table in self._keyless
            outcomes = (False,) if keyless else (True, False)
            out: List[ExecutionPath] = []
            for hit in outcomes:
                branch = path.fork()
                branch.events.append(
                    ApplyEvent(
                        table=node.table, hit=hit, guard_positions=guards
                    )
                )
                self._bump()
                if hit and node.on_hit is not None:
                    out.extend(self._walk(node.on_hit, branch, guards))
                elif not hit and node.on_miss is not None:
                    out.extend(self._walk(node.on_miss, branch, guards))
                else:
                    out.append(branch)
            return out
        raise ReproError(f"unknown control node {node!r}")

    # ------------------------------------------------------------------
    # Queries

    def may_coexecute(self, table_a: str, table_b: str) -> bool:
        """Can both tables be applied to the same packet?"""
        for path in self.paths:
            tables = set(path.tables())
            if table_a in tables and table_b in tables:
                return True
        return False

    def statically_exclusive(self, table_a: str, table_b: str) -> bool:
        """No feasible path applies both tables."""
        return not self.may_coexecute(table_a, table_b)

    def tables_reached(self) -> Set[str]:
        out: Set[str] = set()
        for path in self.paths:
            out.update(path.tables())
        return out

    def path_count(self) -> int:
        return len(self.paths)

    def table_pairs_in_order(self) -> Set[Tuple[str, str]]:
        """(A, B) pairs where A is applied before B on some feasible path."""
        out: Set[Tuple[str, str]] = set()
        for path in self.paths:
            tables = path.tables()
            for i, a in enumerate(tables):
                for b in tables[i + 1 :]:
                    out.add((a, b))
        return out
