"""Exhaustive reference implementations for small instances.

Arborescences pick one in-arc per non-root vertex, functional subgraphs one
out-arc per vertex; a pick is kept when every walk along it settles on a
fixed point.  Nothing here touches the polynomial or determinant code, so it
serves as independent ground truth in tests.
"""

from __future__ import annotations

import itertools

from .counting import Arborescence
# The certificate checks are graph's; tests and the benchmark checker import them from here.
from .graph import ColoredDigraph, check_index, color_histogram, is_arborescence

DEFAULT_CAP = 7


def _picks(graph: ColoredDigraph, options, cap: int = DEFAULT_CAP):
    """Every choice of one edge from each list in `options`, in product order; refuses n above `cap`."""
    if graph.n > cap:
        raise ValueError(f"graph has {graph.n} vertices, oracle cap is {cap}")
    return itertools.product(*options)


def _settles(step: dict[int, int], n: int) -> bool:
    """Whether every walk along the vertex map `step` reaches a fixed point of it within n steps."""
    for v in step:
        left = n
        while (w := step[v]) != v:
            if not left:
                return False
            left, v = left - 1, w
    return True


def _histogram_test(graph: ColoredDigraph, alpha):
    """A test of edge ids against alpha, the counts of colors 1..q-1; a wrong length is refused now."""
    target = tuple(alpha)
    if len(target) != graph.q - 1:
        raise ValueError(f"color constraint must have q-1 = {graph.q - 1} entries")
    return lambda edge_ids: color_histogram(graph, edge_ids)[: graph.q - 1] == target


def enumerate_arborescences(graph: ColoredDigraph, root: int, *, cap: int = DEFAULT_CAP) -> list[Arborescence]:
    """All root-arborescences, by brute force over in-arc picks.

    Each non-root vertex picks an in-arc that is not a self-loop; a pick is kept when every walk
    from head to tail ends at the root, the only fixed point.  The result is ordered
    lexicographically by the per-vertex edge-id vector.
    """
    check_index(root, "root", graph.n)
    incoming = [[e for e in graph.edges if e.head == v and e.tail != v] for v in range(1, graph.n + 1) if v != root]
    found = []
    for choice in _picks(graph, incoming, cap):
        step = {e.head: e.tail for e in choice}
        step[root] = root
        if _settles(step, graph.n):
            found.append(Arborescence(root, tuple(sorted(e.id for e in choice))))
    return found


def oracle_count(graph: ColoredDigraph, root: int, alpha) -> int:
    """Number of root-arborescences whose histogram matches alpha exactly."""
    matches = _histogram_test(graph, alpha)
    return sum(matches(arb.edge_ids) for arb in enumerate_arborescences(graph, root))


def oracle_min_weight(graph: ColoredDigraph, root: int, alpha) -> tuple[int, int] | None:
    """(minimum weight, number of minimizers) over matching arborescences."""
    matches = _histogram_test(graph, alpha)
    arbs = enumerate_arborescences(graph, root)
    weights = [sum(graph.edge(i).weight for i in arb.edge_ids) for arb in arbs if matches(arb.edge_ids)]
    if not weights:
        return None
    best = min(weights)
    return best, weights.count(best)


def enumerate_functional(graph: ColoredDigraph, alpha) -> int:
    """Count spanning functional subgraphs with only self-loop cycles.

    Brute force over one out-arc per vertex, self-loops allowed: a pick counts when every walk
    from tail to head ends at a self-loop and its color histogram matches alpha.
    """
    matches = _histogram_test(graph, alpha)
    outgoing = [[e for e in graph.edges if e.tail == v] for v in range(1, graph.n + 1)]
    settled = (c for c in _picks(graph, outgoing) if _settles({e.tail: e.head for e in c}, graph.n))
    return sum(matches(e.id for e in choice) for choice in settled)
