"""Unit + property tests for the generic digraph algorithms."""

import pytest
from hypothesis import given, strategies as st

from repro.analysis.graph import CycleError, Digraph


def chain(*nodes, weight=1):
    g = Digraph()
    for a, b in zip(nodes, nodes[1:]):
        g.add_edge(a, b, weight)
    return g


class TestBasics:
    def test_nodes_and_edges(self):
        g = chain("a", "b", "c")
        assert g.nodes() == {"a", "b", "c"}
        assert ("a", "b", 1) in g.edges()
        assert "b" in g.successors("a")
        assert "a" not in g.successors("b")

    def test_parallel_edges_keep_heaviest(self):
        g = Digraph()
        g.add_edge("a", "b", 1)
        g.add_edge("a", "b", 3)
        g.add_edge("a", "b", 2)
        assert g.weight("a", "b") == 3

    def test_predecessors_successors(self):
        g = chain("a", "b", "c")
        assert {src for src, dst, _w in g.edges() if dst == "c"} == {"b"}
        assert g.successors("a") == {"b": 1}

    def test_missing_weight_raises(self):
        from repro.exceptions import ReproError

        with pytest.raises(ReproError):
            chain("a", "b").weight("b", "a")


class TestTopologicalOrder:
    def test_chain_order(self):
        assert chain("a", "b", "c").topological_order() == ["a", "b", "c"]

    def test_cycle_detected(self):
        g = chain("a", "b")
        g.add_edge("b", "a")
        with pytest.raises(CycleError):
            g.topological_order()

    def test_isolated_nodes_included(self):
        g = chain("a", "b")
        g.add_node("z")
        assert set(g.topological_order()) == {"a", "b", "z"}


class TestLongestPath:
    def test_simple_chain(self):
        weight, path = chain("a", "b", "c").longest_path()
        assert weight == 2
        assert path == ["a", "b", "c"]

    def test_weighted_edges(self):
        g = Digraph()
        g.add_edge("a", "b", 1)
        g.add_edge("a", "c", 5)
        g.add_edge("b", "d", 1)
        g.add_edge("c", "d", 1)
        weight, path = g.longest_path()
        assert weight == 6
        assert path == ["a", "c", "d"]

    def test_zero_weight_edges(self):
        g = Digraph()
        g.add_edge("a", "b", 0)
        g.add_edge("b", "c", 1)
        weight, _path = g.longest_path()
        assert weight == 1

    def test_empty_graph(self):
        assert Digraph().longest_path() == (0, [])


class TestCriticalEdges:
    def test_single_chain_all_critical(self):
        g = chain("a", "b", "c")
        assert g.critical_edges() == {("a", "b"), ("b", "c")}

    def test_shorter_branch_not_critical(self):
        g = Digraph()
        g.add_edge("a", "b", 1)
        g.add_edge("b", "c", 1)
        g.add_edge("a", "c", 1)  # shortcut: not on the longest path
        assert ("a", "c") not in g.critical_edges()
        assert ("a", "b") in g.critical_edges()

    def test_parallel_longest_paths_all_critical(self):
        g = Digraph()
        g.add_edge("a", "b", 1)
        g.add_edge("b", "d", 1)
        g.add_edge("a", "c", 1)
        g.add_edge("c", "d", 1)
        assert g.critical_edges() == {
            ("a", "b"), ("b", "d"), ("a", "c"), ("c", "d"),
        }

    def test_zero_weight_successor_edge_not_critical_alone(self):
        g = Digraph()
        g.add_edge("a", "b", 1)
        g.add_edge("a", "c", 0)
        assert g.critical_edges() == {("a", "b")}


@given(
    st.lists(
        st.tuples(st.integers(0, 15), st.integers(0, 15)),
        max_size=40,
    )
)
def test_longest_path_consistency(edge_pairs):
    """On random DAGs (edges forced forward), the longest path's weight
    equals the max of the per-node longest-path lengths."""
    g = Digraph()
    for a, b in edge_pairs:
        if a < b:
            g.add_edge(a, b, 1)
    if not g.nodes():
        return
    lengths = g.longest_path_lengths()
    weight, path = g.longest_path()
    assert weight == max(lengths.values())
    assert len(path) >= 1
    # The returned path is genuinely a path.
    for src, dst in zip(path, path[1:]):
        assert dst in g.successors(src)
