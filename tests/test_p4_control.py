"""Unit tests for the control AST and its surgery utilities."""

import copy

import pytest

from repro.exceptions import P4ValidationError
from repro.p4.control import (
    Apply,
    If,
    Seq,
    control_equal,
    find_apply,
    iter_applies,
    iter_nodes,
    normalize,
    remove_subtree,
    replace_subtree,
    tables_applied,
)
from repro.p4.expressions import Const, BinOp, ValidExpr


def sample_tree():
    inner = If(ValidExpr("dns"), Seq([Apply("s1"), Apply("s2")]))
    return Seq([If(ValidExpr("ipv4"), Apply("fib")), Apply("acl"), inner])


class TestTraversal:
    def test_iter_nodes_preorder(self):
        tree = sample_tree()
        kinds = [type(n).__name__ for n in iter_nodes(tree)]
        assert kinds[0] == "Seq"
        assert kinds.count("Apply") == 4

    def test_tables_applied_in_order(self):
        assert tables_applied(sample_tree()) == ["fib", "acl", "s1", "s2"]

    def test_iter_applies_covers_branches(self):
        tree = Apply("a", on_hit=Apply("b"), on_miss=Apply("c"))
        assert [x.table for x in iter_applies(tree)] == ["a", "b", "c"]


class TestFindApply:
    def test_found(self):
        tree = sample_tree()
        node = find_apply(tree, "s1")
        assert node is not None and node.table == "s1"

    def test_missing_returns_none(self):
        assert find_apply(sample_tree(), "ghost") is None

    def test_duplicate_application_rejected(self):
        tree = Seq([Apply("t"), Apply("t")])
        with pytest.raises(P4ValidationError):
            find_apply(tree, "t")


class TestRemoveSubtree:
    def test_remove_seq_element(self):
        tree = sample_tree()
        target = tree.nodes[1]  # Apply("acl")
        pruned = remove_subtree(tree, target)
        assert tables_applied(pruned) == ["fib", "s1", "s2"]
        # Original untouched.
        assert tables_applied(tree) == ["fib", "acl", "s1", "s2"]

    def test_remove_if_then_leaves_empty_body(self):
        tree = sample_tree()
        target = tree.nodes[0].then_node  # Apply("fib")
        pruned = remove_subtree(tree, target)
        assert "fib" not in tables_applied(pruned)

    def test_remove_nested_branch(self):
        tree = Apply("a", on_miss=Apply("b"))
        pruned = remove_subtree(tree, tree.on_miss)
        assert tables_applied(pruned) == ["a"]

    def test_missing_target_raises(self):
        with pytest.raises(P4ValidationError):
            remove_subtree(sample_tree(), Apply("ghost"))


class TestReplaceSubtree:
    def test_replace_seq_element(self):
        tree = sample_tree()
        target = tree.nodes[2]  # dns branch
        replaced = replace_subtree(tree, target, Apply("to_ctl"))
        assert tables_applied(replaced) == ["fib", "acl", "to_ctl"]

    def test_replace_inside_if(self):
        tree = sample_tree()
        target = tree.nodes[2].then_node
        replaced = replace_subtree(tree, target, Apply("to_ctl"))
        assert tables_applied(replaced) == ["fib", "acl", "to_ctl"]
        # The guard survives.
        assert isinstance(replaced.nodes[2], If)

    def test_replace_in_apply_branch(self):
        tree = Apply("a", on_hit=Apply("b"))
        replaced = replace_subtree(tree, tree.on_hit, Apply("c"))
        assert tables_applied(replaced) == ["a", "c"]

    def test_missing_target_raises(self):
        with pytest.raises(P4ValidationError):
            replace_subtree(sample_tree(), Apply("ghost"), Apply("x"))


class TestNormalize:
    def test_unwraps_singleton_seq(self):
        tree = Seq([Apply("a")])
        assert control_equal(normalize(tree), Apply("a"))

    def test_flattens_nested_seq(self):
        tree = Seq([Seq([Apply("a"), Apply("b")]), Apply("c")])
        normalized = normalize(tree)
        assert isinstance(normalized, Seq)
        assert len(normalized.nodes) == 3

    def test_recurses_into_branches(self):
        tree = Apply("a", on_hit=Seq([Apply("b")]))
        assert control_equal(
            normalize(tree), Apply("a", on_hit=Apply("b"))
        )


class TestControlEqual:
    def test_equal_trees(self):
        assert control_equal(sample_tree(), sample_tree())

    def test_clone_is_equal_but_distinct(self):
        tree = sample_tree()
        copied = copy.deepcopy(tree)
        assert control_equal(tree, copied)
        assert copied is not tree
        assert copied.nodes[0] is not tree.nodes[0]

    def test_different_tables_unequal(self):
        assert not control_equal(Apply("a"), Apply("b"))

    def test_different_conditions_unequal(self):
        a = If(BinOp(">=", Const(1), Const(2)), Apply("t"))
        b = If(BinOp("<=", Const(1), Const(2)), Apply("t"))
        assert not control_equal(a, b)

    def test_branch_presence_matters(self):
        assert not control_equal(Apply("a"), Apply("a", on_hit=Apply("b")))
