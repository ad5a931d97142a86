"""Parser specification.

A parse graph: each state extracts header instances and selects the next
state on a field of the packet.  The parser determines which combinations of
headers can be simultaneously valid — the analysis layer exploits this to
prove static mutual exclusivity (e.g. a packet can never carry both a DNS
and a DHCP header because they live on different parser branches).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.exceptions import P4ValidationError
from repro.p4.expressions import FieldRef

#: Pseudo-state name that terminates parsing.
ACCEPT = "accept"


@dataclass(frozen=True)
class ParserState:
    """One parser state.

    ``extracts`` lists header instances extracted in order.  If ``select``
    is set, the next state is chosen by matching the field's value against
    ``transitions`` (exact values); otherwise ``default`` is taken.
    """

    name: str
    extracts: Tuple[str, ...] = ()
    select: Optional[FieldRef] = None
    transitions: Dict[int, str] = dc_field(default_factory=dict)
    default: str = ACCEPT

    def __post_init__(self) -> None:
        object.__setattr__(self, "extracts", tuple(self.extracts))
        if self.select is None and self.transitions:
            raise P4ValidationError(
                f"parser state {self.name!r} has transitions but no select"
            )

    def next_states(self) -> Set[str]:
        out = set(self.transitions.values())
        out.add(self.default)
        return out


@dataclass(frozen=True)
class ParserSpec:
    """The parse graph: states plus the start state name."""

    states: Dict[str, ParserState]
    start: str

    def validate(self) -> None:
        if self.start not in self.states:
            raise P4ValidationError(
                f"parser start state {self.start!r} is not defined"
            )
        for state in self.states.values():
            for nxt in state.next_states():
                if nxt != ACCEPT and nxt not in self.states:
                    raise P4ValidationError(
                        f"parser state {state.name!r} transitions to "
                        f"undefined state {nxt!r}"
                    )
        self._check_acyclic()

    def _check_acyclic(self) -> None:
        """Reject cyclic parse graphs (no header stacks in this IR)."""
        WHITE, GRAY, BLACK = 0, 1, 2
        color = {name: WHITE for name in self.states}

        def visit(name: str) -> None:
            color[name] = GRAY
            for nxt in self.states[name].next_states():
                if nxt == ACCEPT:
                    continue
                if color[nxt] == GRAY:
                    raise P4ValidationError(
                        f"parser has a cycle through state {nxt!r}"
                    )
                if color[nxt] == WHITE:
                    visit(nxt)
            color[name] = BLACK

        visit(self.start)

    def reachable_states(self) -> Set[str]:
        seen: Set[str] = set()
        stack = [self.start]
        while stack:
            name = stack.pop()
            if name in seen or name == ACCEPT:
                continue
            seen.add(name)
            stack.extend(self.states[name].next_states())
        return seen

    def valid_header_sets(self) -> List[FrozenSet[str]]:
        """Enumerate all header-validity sets the parser can produce.

        Each root-to-accept path yields the set of headers extracted along
        it.  These sets drive static mutual-exclusivity analysis: two headers
        never co-valid means conditions testing them are exclusive.
        """
        results: List[FrozenSet[str]] = []

        def walk(state_name: str, valid: Set[str]) -> None:
            if state_name == ACCEPT:
                results.append(frozenset(valid))
                return
            state = self.states[state_name]
            new_valid = valid | set(state.extracts)
            for nxt in sorted(state.next_states()):
                walk(nxt, new_valid)

        walk(self.start, set())
        # Deduplicate while keeping deterministic order.
        seen: Set[FrozenSet[str]] = set()
        unique: List[FrozenSet[str]] = []
        for s in results:
            if s not in seen:
                seen.add(s)
                unique.append(s)
        return unique

    def headers_extracted(self) -> Set[str]:
        out: Set[str] = set()
        for state in self.states.values():
            out.update(state.extracts)
        return out

    def may_both_be_valid(self, a: str, b: str) -> bool:
        """Can headers ``a`` and ``b`` both be valid on some parsed packet?"""
        if a == b:
            return True
        return any(
            a in s and b in s for s in self.valid_header_sets()
        )

    def implies_valid(self, a: str, b: str) -> bool:
        """Does ``valid(a)`` imply ``valid(b)`` for every parsed packet?

        Used by the dependency-removal rewrite (§3.2) to prove that moving a
        guarded apply into another table's miss branch cannot orphan it —
        e.g. every DHCP packet is also a UDP packet.
        """
        return all(
            b in s for s in self.valid_header_sets() if a in s
        )
