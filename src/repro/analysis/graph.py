"""Generic directed-graph algorithms used by the analysis layer.

Small, dependency-free implementations over hashable node ids: topological
sort, cycle detection, and weighted longest paths in DAGs (the critical-path
computation behind phase 2's candidate selection, §3.2).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Generic, Hashable, List, Set, Tuple, TypeVar

from repro.exceptions import ReproError

N = TypeVar("N", bound=Hashable)


class CycleError(ReproError):
    """The graph unexpectedly contains a cycle."""


class Digraph(Generic[N]):
    """A directed graph with optional integer edge weights."""

    def __init__(self) -> None:
        self._succ: Dict[N, Dict[N, int]] = defaultdict(dict)
        self._pred: Dict[N, Set[N]] = defaultdict(set)
        self._nodes: Set[N] = set()

    # ------------------------------------------------------------------
    def add_node(self, node: N) -> None:
        self._nodes.add(node)

    def add_edge(self, src: N, dst: N, weight: int = 1) -> None:
        self._nodes.add(src)
        self._nodes.add(dst)
        existing = self._succ[src].get(dst)
        # Keep the heaviest parallel edge.
        if existing is None or weight > existing:
            self._succ[src][dst] = weight
        self._pred[dst].add(src)

    def nodes(self) -> Set[N]:
        return set(self._nodes)

    def edges(self) -> List[Tuple[N, N, int]]:
        return [
            (src, dst, w)
            for src, targets in self._succ.items()
            for dst, w in targets.items()
        ]

    def successors(self, node: N) -> Dict[N, int]:
        return dict(self._succ.get(node, {}))

    def weight(self, src: N, dst: N) -> int:
        try:
            return self._succ[src][dst]
        except KeyError:
            raise ReproError(f"no edge {src!r} -> {dst!r}") from None

    # ------------------------------------------------------------------
    def topological_order(self) -> List[N]:
        """Kahn's algorithm; raises CycleError on cycles."""
        indegree: Dict[N, int] = {n: 0 for n in self._nodes}
        for _src, dst, _w in self.edges():
            indegree[dst] += 1
        ready = sorted(
            (n for n, d in indegree.items() if d == 0), key=repr
        )
        order: List[N] = []
        while ready:
            node = ready.pop(0)
            order.append(node)
            for succ in sorted(self._succ.get(node, {}), key=repr):
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    ready.append(succ)
        if len(order) != len(self._nodes):
            raise CycleError("graph contains a cycle")
        return order

    def longest_path_lengths(self) -> Dict[N, int]:
        """Longest weighted path *ending* at each node (DAG only)."""
        lengths: Dict[N, int] = {n: 0 for n in self._nodes}
        for node in self.topological_order():
            for succ, weight in self._succ.get(node, {}).items():
                candidate = lengths[node] + weight
                if candidate > lengths[succ]:
                    lengths[succ] = candidate
        return lengths

    def longest_path(self) -> Tuple[int, List[N]]:
        """(total weight, node sequence) of one maximal-weight path."""
        lengths = self.longest_path_lengths()
        if not lengths:
            return (0, [])
        end = max(lengths, key=lambda n: (lengths[n], repr(n)))
        path = [end]
        current = end
        while lengths[current] > 0:
            for pred in sorted(self._pred.get(current, set()), key=repr):
                weight = self._succ[pred].get(current)
                if weight is not None and lengths[pred] + weight == lengths[current]:
                    path.append(pred)
                    current = pred
                    break
            else:
                break
        path.reverse()
        return (lengths[end], path)

    def critical_edges(self) -> Set[Tuple[N, N]]:
        """Edges lying on at least one maximum-weight path.

        These are phase 2's removal candidates: only dependencies on the
        longest path can shorten the pipeline when removed (§3.2).
        """
        lengths = self.longest_path_lengths()
        if not lengths:
            return set()
        total = max(lengths.values())
        # Longest path *starting* at each node, computed on the reverse DAG.
        suffix: Dict[N, int] = {n: 0 for n in self._nodes}
        for node in reversed(self.topological_order()):
            for succ, weight in self._succ.get(node, {}).items():
                candidate = suffix[succ] + weight
                if candidate > suffix[node]:
                    suffix[node] = candidate
        critical: Set[Tuple[N, N]] = set()
        for src, dst, weight in self.edges():
            if lengths[src] + weight + suffix[dst] == total:
                critical.add((src, dst))
        return critical
