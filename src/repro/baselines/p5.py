"""Baseline: a P5-style policy-driven optimizer (Abhashkumar et al.,
SOSR'17), as the paper contrasts against (§1, §5).

P5 removes *entire features* the operator's high-level policy declares
unused — it cannot act without such a policy, cannot remove a dependency
between two features that are both needed (NAT & GRE), and cannot offload
code that is used, however rarely (Failure Detection).  We reproduce that
behaviour: the operator supplies a policy naming unused features (groups
of tables); P5 deactivates those code blocks wholesale and recompiles.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field, replace
from typing import Dict, Set, Tuple

from repro.exceptions import OptimizationError
from repro.p4.control import (
    Seq,
    tables_applied,
)
from repro.p4.program import Program
from repro.target.compiler import compile_program
from repro.target.model import DEFAULT_TARGET, TargetModel


@dataclass
class Policy:
    """High-level operator intent: features (table groups) not needed."""

    unused_features: Dict[str, Tuple[str, ...]] = dc_field(
        default_factory=dict
    )

    def unused_tables(self) -> Set[str]:
        out: Set[str] = set()
        for tables in self.unused_features.values():
            out.update(tables)
        return out


def deactivate_feature_blocks(program: Program, policy: Policy) -> Program:
    """Remove whole feature blocks whose tables the policy declares unused.

    P5's granularity is coarse ("deactivating entire code blocks"): a
    *top-level* block of the ingress sequence is removed only when every
    table it applies is policy-unused.  Partially-used blocks stay intact,
    dependencies and all — the limitation the paper contrasts with (§1).
    """
    unused = policy.unused_tables()
    unknown = unused - set(program.tables)
    if unknown:
        raise OptimizationError(
            f"policy names unknown tables: {sorted(unknown)}"
        )

    root = program.ingress
    blocks = root.nodes if isinstance(root, Seq) else (root,)
    kept = []
    for block in blocks:
        applied = set(tables_applied(block))
        if applied and applied <= unused:
            continue
        kept.append(block)
    ingress = Seq(kept)
    # Drop tables that are no longer applied anywhere.
    still_applied = set(tables_applied(ingress)) | set(
        tables_applied(program.egress)
    )
    return replace(
        program,
        ingress=ingress,
        tables={
            name: table
            for name, table in program.tables.items()
            if name in still_applied
        },
    )


@dataclass
class P5Result:
    """What the policy-driven optimizer achieves."""

    program: Program
    stages_before: int
    stages_after: int
    removed_tables: Tuple[str, ...]


def optimize_with_policy(
    program: Program,
    policy: Policy,
    target: TargetModel = DEFAULT_TARGET,
) -> P5Result:
    """Deactivate policy-unused blocks and recompile."""
    before = compile_program(program, target).stages_used
    reduced = deactivate_feature_blocks(program, policy)
    after = compile_program(reduced, target).stages_used
    removed = tuple(
        sorted(set(program.tables) - set(reduced.tables))
    )
    return P5Result(
        program=reduced,
        stages_before=before,
        stages_after=after,
        removed_tables=removed,
    )
