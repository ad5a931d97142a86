"""Control-flow AST for the ingress pipeline.

A control body is a tree of three node kinds:

* :class:`Seq` — sequential composition,
* :class:`Apply` — apply a table, with optional hit/miss branches,
* :class:`If` — conditional on a boolean expression.

P2GO's program rewrites (§3.2 dependency removal, §3.4 offloading) are tree
transformations over this AST, so the module also provides traversal and
surgical-replacement utilities.  Nodes are frozen: a rewrite path-copies
the ancestors of what changed (:func:`replace_subtree`,
:func:`remove_subtree`) and shares every other subtree with the tree it
was derived from (DESIGN.md §16).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, List, Optional, Tuple, Union

from repro.exceptions import P4ValidationError
from repro.p4.expressions import Expr
from repro.p4.types import KeepsPinsLocal


@dataclass(frozen=True)
class Apply(KeepsPinsLocal):
    """Apply a table; optionally branch on hit/miss."""

    table: str
    on_hit: Optional["ControlNode"] = None
    on_miss: Optional["ControlNode"] = None

    def children(self) -> Tuple["ControlNode", ...]:
        out: List[ControlNode] = []
        if self.on_hit is not None:
            out.append(self.on_hit)
        if self.on_miss is not None:
            out.append(self.on_miss)
        return tuple(out)


@dataclass(frozen=True)
class If(KeepsPinsLocal):
    """Conditional execution."""

    condition: Expr
    then_node: "ControlNode"
    else_node: Optional["ControlNode"] = None

    def children(self) -> Tuple["ControlNode", ...]:
        if self.else_node is None:
            return (self.then_node,)
        return (self.then_node, self.else_node)


@dataclass(frozen=True)
class Seq(KeepsPinsLocal):
    """Sequential composition of control nodes."""

    nodes: Tuple["ControlNode", ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(self.nodes))

    def children(self) -> Tuple["ControlNode", ...]:
        return self.nodes


ControlNode = Union[Apply, If, Seq]


def iter_nodes(node: ControlNode) -> Iterator[ControlNode]:
    """Pre-order traversal of a control subtree."""
    yield node
    for child in node.children():
        yield from iter_nodes(child)


def iter_applies(node: ControlNode) -> Iterator[Apply]:
    """All :class:`Apply` nodes in pre-order."""
    for n in iter_nodes(node):
        if isinstance(n, Apply):
            yield n


def tables_applied(node: ControlNode) -> List[str]:
    """Table names applied anywhere in the subtree, in pre-order."""
    return [a.table for a in iter_applies(node)]


def find_apply(root: ControlNode, table: str) -> Optional[Apply]:
    """The unique :class:`Apply` node for ``table``, or ``None``.

    Raises :class:`P4ValidationError` if the table is applied more than once
    (P4_14 forbids multiple applications of the same table).
    """
    matches = [a for a in iter_applies(root) if a.table == table]
    if not matches:
        return None
    if len(matches) > 1:
        raise P4ValidationError(
            f"table {table!r} is applied {len(matches)} times"
        )
    return matches[0]


def remove_subtree(root: ControlNode, target: ControlNode) -> ControlNode:
    """Return a copy of ``root`` with the subtree ``target`` (matched by
    object identity) removed."""
    result = _remove_by_identity(root, target)
    if result is _SENTINEL_NOT_FOUND:
        raise P4ValidationError("subtree to remove not found in control tree")
    if result is None:
        return Seq([])
    return result


_SENTINEL_NOT_FOUND = object()


def _remove_by_identity(node, target):
    if node is target:
        return None
    if isinstance(node, Seq):
        changed = False
        new_children = []
        for child in node.nodes:
            result = _remove_by_identity(child, target)
            if result is not _SENTINEL_NOT_FOUND:
                changed = True
                if result is not None:
                    new_children.append(result)
            else:
                new_children.append(child)
        if changed:
            return Seq(new_children)
        return _SENTINEL_NOT_FOUND
    if isinstance(node, If):
        result = _remove_by_identity(node.then_node, target)
        if result is not _SENTINEL_NOT_FOUND:
            then_node = result if result is not None else Seq([])
            return If(node.condition, then_node, node.else_node)
        if node.else_node is not None:
            result = _remove_by_identity(node.else_node, target)
            if result is not _SENTINEL_NOT_FOUND:
                return If(node.condition, node.then_node, result)
        return _SENTINEL_NOT_FOUND
    if isinstance(node, Apply):
        for attr in ("on_hit", "on_miss"):
            branch = getattr(node, attr)
            if branch is None:
                continue
            result = _remove_by_identity(branch, target)
            if result is not _SENTINEL_NOT_FOUND:
                return replace(node, **{attr: result})
        return _SENTINEL_NOT_FOUND
    raise P4ValidationError(f"unknown control node {node!r}")


def replace_subtree(
    root: ControlNode, target: ControlNode, replacement: ControlNode
) -> ControlNode:
    """Return a copy of ``root`` with ``target`` (by identity) replaced."""
    result = _replace_by_identity(root, target, replacement)
    if result is _SENTINEL_NOT_FOUND:
        raise P4ValidationError("subtree to replace not found in control tree")
    return result


def _replace_by_identity(node, target, replacement):
    if node is target:
        return replacement
    if isinstance(node, Seq):
        for i, child in enumerate(node.nodes):
            result = _replace_by_identity(child, target, replacement)
            if result is not _SENTINEL_NOT_FOUND:
                new_children = list(node.nodes)
                new_children[i] = result
                return Seq(new_children)
        return _SENTINEL_NOT_FOUND
    if isinstance(node, If):
        result = _replace_by_identity(node.then_node, target, replacement)
        if result is not _SENTINEL_NOT_FOUND:
            return If(node.condition, result, node.else_node)
        if node.else_node is not None:
            result = _replace_by_identity(node.else_node, target, replacement)
            if result is not _SENTINEL_NOT_FOUND:
                return If(node.condition, node.then_node, result)
        return _SENTINEL_NOT_FOUND
    if isinstance(node, Apply):
        for attr in ("on_hit", "on_miss"):
            branch = getattr(node, attr)
            if branch is None:
                continue
            result = _replace_by_identity(branch, target, replacement)
            if result is not _SENTINEL_NOT_FOUND:
                return replace(node, **{attr: result})
        return _SENTINEL_NOT_FOUND
    raise P4ValidationError(f"unknown control node {node!r}")


def normalize(node: ControlNode) -> ControlNode:
    """Canonical form: flatten nested Seqs and unwrap singleton Seqs.

    The DSL printer/parser round-trip preserves semantics but may differ
    in Seq nesting; comparing normalized trees with :func:`control_equal`
    gives the structural equivalence that matters.
    """
    if isinstance(node, Seq):
        flattened: List[ControlNode] = []
        for child in node.nodes:
            result = normalize(child)
            if isinstance(result, Seq):
                flattened.extend(result.nodes)
            else:
                flattened.append(result)
        if len(flattened) == 1:
            return flattened[0]
        return Seq(flattened)
    if isinstance(node, If):
        return If(
            node.condition,
            normalize(node.then_node),
            normalize(node.else_node) if node.else_node is not None else None,
        )
    if isinstance(node, Apply):
        return Apply(
            node.table,
            normalize(node.on_hit) if node.on_hit is not None else None,
            normalize(node.on_miss) if node.on_miss is not None else None,
        )
    raise P4ValidationError(f"unknown control node {node!r}")


def control_equal(a: ControlNode, b: ControlNode) -> bool:
    """Structural equality of two control subtrees."""
    if type(a) is not type(b):
        return False
    if isinstance(a, Apply):
        if a.table != b.table:
            return False
        for x, y in ((a.on_hit, b.on_hit), (a.on_miss, b.on_miss)):
            if (x is None) != (y is None):
                return False
            if x is not None and not control_equal(x, y):
                return False
        return True
    if isinstance(a, If):
        if a.condition != b.condition:
            return False
        if not control_equal(a.then_node, b.then_node):
            return False
        if (a.else_node is None) != (b.else_node is None):
            return False
        if a.else_node is not None:
            return control_equal(a.else_node, b.else_node)
        return True
    if isinstance(a, Seq):
        if len(a.nodes) != len(b.nodes):
            return False
        return all(control_equal(x, y) for x, y in zip(a.nodes, b.nodes))
    raise P4ValidationError(f"unknown control node {a!r}")
