"""Runtime detection of dependency-removal violations.

§3.2's alternative to programmer review: "If the first table hits, we
could apply a new table that matches on the same fields as the second
table and triggers a notification to the controller, reporting the
dependency.  Still, this approach only detects the problem."

Implemented as an opt-in transform: after phase 2 relocates table B into
table A's miss branch, :func:`add_dependency_guard` installs a *guard
table* in A's **hit** branch that matches on B's key fields.  A packet
that hits A *and* would have matched B is exactly a packet on which the
removed dependency manifests — the guard notifies the controller instead
of silently mis-processing nothing (the packet's data-plane treatment is
unchanged; mitigation is future work, as the paper says).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Sequence, Tuple

from repro.exceptions import OptimizationError
from repro.p4.actions import Action, SendToController
from repro.p4.control import (
    Apply,
    Seq,
    find_apply,
    replace_subtree,
    tables_applied,
)
from repro.p4.program import Program
from repro.p4.tables import Table
from repro.sim.runtime import RuntimeConfig

#: Controller reason code carried by guard notifications.
GUARD_REASON = 0xDE


def guard_table_name(src: str, dst: str) -> str:
    return f"p2go_guard__{src}__{dst}"


def guard_action_name(src: str, dst: str) -> str:
    return f"p2go_guard_notify__{src}__{dst}"


@dataclass(frozen=True)
class DependencyGuard:
    """Handle to an installed guard."""

    src: str
    dst: str
    table: str
    action: str


def add_dependency_guard(
    program: Program, config: RuntimeConfig, src: str, dst: str
) -> Tuple[Program, RuntimeConfig, DependencyGuard]:
    """Install a guard for the removed dependency ``src -> dst``.

    Requires the phase-2 shape: ``dst`` applied inside ``src``'s miss
    branch.  The guard table copies ``dst``'s match keys, sits in
    ``src``'s hit branch, and notifies the controller on a hit.  The
    returned config is ``config`` plus ``dst``'s entries mirrored into
    the guard with the notify action, so the guard matches exactly when
    ``dst`` would have.
    """
    apply_src = find_apply(program.ingress, src)
    if apply_src is None:
        raise OptimizationError(f"table {src!r} not applied in the program")
    if apply_src.on_miss is None:
        raise OptimizationError(
            f"table {src!r} has no miss branch; expected the phase-2 "
            f"rewrite shape"
        )
    if dst not in tables_applied(apply_src.on_miss):
        raise OptimizationError(
            f"table {dst!r} is not inside {src!r}'s miss branch"
        )
    dst_table = program.tables.get(dst)
    if dst_table is None:
        raise OptimizationError(f"unknown table {dst!r}")
    if not dst_table.keys:
        raise OptimizationError(
            f"table {dst!r} is keyless; a guard cannot mirror its match"
        )

    table = guard_table_name(src, dst)
    action = guard_action_name(src, dst)
    if table in program.tables:
        raise OptimizationError(f"guard {table!r} already installed")

    guard_apply = Apply(table)
    if apply_src.on_hit is None:
        on_hit = guard_apply
    else:
        on_hit = Seq([apply_src.on_hit, guard_apply])
    actions = dict(program.actions)
    actions[action] = Action(
        name=action, primitives=(SendToController(GUARD_REASON),)
    )
    tables = dict(program.tables)
    tables[table] = Table(
        name=table,
        keys=dst_table.keys,
        actions=(action,),
        default_action="NoAction",
        size=dst_table.size,
    )
    out = replace(
        program,
        actions=actions,
        tables=tables,
        ingress=replace_subtree(
            program.ingress, apply_src, replace(apply_src, on_hit=on_hit)
        ),
    )
    guarded_config = config.clone()
    for entry in config.entries_for(dst):
        guarded_config.add_entry(
            table, entry.match, action, action_args=(),
            priority=entry.priority,
        )
    return (
        out,
        guarded_config,
        DependencyGuard(src=src, dst=dst, table=table, action=action),
    )


def guard_notifications(results: Sequence) -> List[int]:
    """Packet indices whose traversal raised a guard notification."""
    return [
        r.index
        for r in results
        if r.to_controller and r.controller_reason == GUARD_REASON
    ]
