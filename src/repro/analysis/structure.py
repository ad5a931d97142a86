"""One analysis per program *structure*.

The control graph and the dependency graphs read a program's shape —
which tables exist, what they match on and run, how the control trees
nest them, what each action touches — and nothing a memory candidate
or a design-space sweep varies: no table or register size, no entry, no
default-action argument, no target.  :func:`structure_key` fingerprints
exactly what the analyses read, :func:`analyse` runs them, and a
:class:`ProgramAnalysis` is valid for every program with the same key.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

from repro.analysis.dependencies import (
    DependencyGraph,
    build_dependency_graph,
)
from repro.p4.program import Program
from repro.p4.types import pinned


@dataclass(frozen=True)
class ProgramAnalysis:
    """What the static analyses produce for one program structure.

    Only the dependency graphs: the control graph's path list is an
    intermediate of building them, read by nothing downstream, and would
    dominate every stored entry and every compile task sent to a pool
    worker."""

    ingress: DependencyGraph
    #: None when the program applies no egress table.
    egress: Optional[DependencyGraph] = None

    def merged(self) -> DependencyGraph:
        """The ingress TDG joined with the egress one (the two share no
        tables, so merging is safe)."""
        if self.egress is None:
            return self.ingress
        return DependencyGraph(
            self.ingress.digraph.nodes(),
            {**self.ingress.dependencies, **self.egress.dependencies},
        )


def analyse(program: Program) -> ProgramAnalysis:
    """Run the analyses on ``program`` (assumed valid)."""
    egress = None
    if program.egress_tables():
        egress = build_dependency_graph(program, control=program.egress)
    return ProgramAnalysis(
        ingress=build_dependency_graph(program), egress=egress
    )


def structure_key(program: Program) -> str:
    """SHA-1 over everything :func:`analyse` reads of ``program``.

    The parser's valid-header sets (path feasibility), both control
    trees with their conditions, each table's name, key fields, hit
    actions and default action, and each action's name with the fields
    and registers it reads and writes.  Sizes, entries, default-action
    arguments, match kinds and the program's name are not read by the
    analyses and are not in the key.  Computed once per value and pinned
    on it; a resize or a rename inherits its parent's (DESIGN.md §16).
    """
    return pinned(program, "_structure_key", _structure_digest)


def _structure_digest(program: Program) -> str:
    parser = program.parser
    content = (
        None
        if parser is None
        else sorted(sorted(headers) for headers in parser.valid_header_sets()),
        repr(program.ingress),
        repr(program.egress),
        [
            (
                name,
                [field.path for field in table.match_fields],
                table.actions,
                table.default_action,
            )
            for name, table in program.tables.items()
        ],
        [
            (
                name,
                sorted(field.path for field in action.reads()),
                sorted(field.path for field in action.writes()),
                sorted(action.registers_read()),
                sorted(action.registers_written()),
            )
            for name, action in program.actions.items()
        ],
    )
    return hashlib.sha1(repr(content).encode()).hexdigest()
