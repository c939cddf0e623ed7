"""Exhaustive reference implementations for small instances.

Everything here is purely combinatorial; none of it touches the polynomial
or determinant code, so it can serve as independent ground truth in tests.
"""

from __future__ import annotations

import itertools

from .counting import Arborescence
# The certificate checks are graph's; tests and the benchmark checker import them from here.
from .graph import ColoredDigraph, color_histogram, is_arborescence

DEFAULT_CAP = 7


def _check_cap(graph: ColoredDigraph, cap: int) -> None:
    if graph.n > cap:
        raise ValueError(f"graph has {graph.n} vertices, oracle cap is {cap}")


def enumerate_arborescences(
    graph: ColoredDigraph, root: int, *, cap: int = DEFAULT_CAP
) -> list[Arborescence]:
    """All root-arborescences, by brute force over incoming-edge choices.

    For each non-root vertex pick one incoming edge, then keep the choice
    vectors whose union is a spanning out-tree.  The result is ordered
    lexicographically by the per-vertex edge-id vector.
    """
    _check_cap(graph, cap)
    if not (1 <= root <= graph.n):
        raise ValueError(f"root {root} out of range 1..{graph.n}")
    others = [v for v in range(1, graph.n + 1) if v != root]
    incoming = {v: [e for e in graph.edges if e.head == v and e.tail != v] for v in others}
    found = []
    for choice in itertools.product(*(incoming[v] for v in others)):
        parent = {e.head: e.tail for e in choice}
        ok = True
        for v in others:
            seen = set()
            w = v
            while w != root:
                if w in seen:
                    ok = False
                    break
                seen.add(w)
                w = parent[w]
            if not ok:
                break
        if ok:
            found.append(Arborescence(root, tuple(sorted(e.id for e in choice))))
    return found


def oracle_count(graph: ColoredDigraph, root: int, alpha) -> int:
    """Number of root-arborescences whose histogram matches alpha exactly."""
    target = tuple(alpha)
    if len(target) != graph.q - 1:
        raise ValueError(f"color constraint must have q-1 = {graph.q - 1} entries")
    hits = 0
    for arb in enumerate_arborescences(graph, root):
        if color_histogram(graph, arb.edge_ids)[: graph.q - 1] == target:
            hits += 1
    return hits


def oracle_min_weight(graph: ColoredDigraph, root: int, alpha) -> tuple[int, int] | None:
    """(minimum weight, number of minimizers) over matching arborescences."""
    target = tuple(alpha)
    weights = [
        sum(graph.edge(i).weight for i in arb.edge_ids)
        for arb in enumerate_arborescences(graph, root)
        if color_histogram(graph, arb.edge_ids)[: graph.q - 1] == target
    ]
    if not weights:
        return None
    best = min(weights)
    return best, weights.count(best)


def enumerate_functional(graph: ColoredDigraph, alpha) -> int:
    """Count spanning functional subgraphs with only self-loop cycles.

    Brute force over one outgoing edge per vertex (self-loops allowed); a
    choice survives when every cycle of the successor map has length one and
    the color histogram matches alpha.
    """
    target = tuple(alpha)
    if len(target) != graph.q - 1:
        raise ValueError(f"color constraint must have q-1 = {graph.q - 1} entries")
    _check_cap(graph, DEFAULT_CAP)
    vertices = list(range(1, graph.n + 1))
    outgoing = {v: [e for e in graph.edges if e.tail == v] for v in vertices}
    hits = 0
    for choice in itertools.product(*(outgoing[v] for v in vertices)):
        successor = {e.tail: e.head for e in choice}
        ok = True
        for v in vertices:
            w = v
            for _ in range(graph.n):
                w = successor[w]
            # w is now on the cycle reached from v; measure that cycle.
            u = successor[w]
            length = 1
            while u != w:
                u = successor[u]
                length += 1
            if length > 1:
                ok = False
                break
        if ok and color_histogram(graph, (e.id for e in choice))[: graph.q - 1] == target:
            hits += 1
    return hits
