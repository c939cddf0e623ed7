"""Minimum-weight color-constrained arborescences.

For an integer r > 1, replacing every weight w(e) by r^w(e) turns the
weighted determinant coefficient for a constraint into sum_T r^w(T) over the
matching arborescences T, which is r^W times (N + a multiple of r) for the
minimum weight W and the number N of minimizers.  Its r-adic valuation is
therefore W exactly when r does not divide N.  N is at most count_alpha, the
number of matching arborescences, so the base r = count_alpha + 1 makes a
single valuation exact (r need not be prime: 0 < N < r).

Every arborescence uses exactly one in-arc of each non-root vertex v, so
lowering all of v's in-weights by the same amount lowers every weight by it
and keeps the minimizers.  Each v's in-weights are lowered by m_v - 1, where
m_v is the lightest of them, so every lightest in-arc weighs 1 and the graph
stays a valid weighted graph with the same edge ids.  This divides the
coefficient, and every determinant the engine takes for it, by
r^sum(m_v - 1); the minimum is the lowered one plus sum(m_v - 1).
"""

from __future__ import annotations

from dataclasses import replace

from .counting import Arborescence, _checked_alpha, _checked_root, _search, count
from .determinant import det_poly
from .graph import ColoredDigraph, Edge, reaches_all
from .laplacian import root_minor


def _checked(graph: ColoredDigraph, root: int, alpha) -> tuple[int, ...]:
    constraint = _checked_alpha(graph.q, alpha)
    _checked_root(graph, root)
    if not graph.weighted:
        raise ValueError("this operation needs a weighted graph")
    return constraint


def c_alpha_r(graph: ColoredDigraph, root: int, alpha, r: int) -> int:
    """sum of r^w(T) over the root-arborescences T matching the constraint.

    The sum is exact for every integer r, negative or zero included.
    Computed as the constraint's coefficient in the determinant of the
    Laplacian minor at the root that `root_minor` builds from the arcs with
    the values r^w(e).  A graph with a vertex unreachable from the root has
    no arborescence and sums to 0 without a determinant.  Raises ValueError
    where `count` does, and on an unweighted graph even if that sum is 0.
    """
    constraint = _checked(graph, root, alpha)
    if not reaches_all(graph, root):
        return 0
    return det_poly(root_minor(graph.n, graph.q, graph.edges, root, r)).get(constraint, 0)


def valuation(value: int, r: int) -> int:
    """Largest k with r^k dividing `value`; zero is rejected (no valuation)."""
    if r < 2:
        raise ValueError(f"valuation needs a base r >= 2, got {r}")
    if value <= 0:
        raise ValueError("valuation needs a positive integer")
    k = 0
    while value % r == 0:
        value //= r
        k += 1
    return k


def _plan(graph: ColoredDigraph, root: int, alpha):
    """(constraint, r, lowered graph, total lowering), or None if nothing matches."""
    constraint = _checked(graph, root, alpha)
    matching = count(graph, root, constraint)
    if matching == 0:
        return None
    lightest: dict[int, int] = {}
    for e in graph.edges:
        if e.head != root:
            lightest[e.head] = min(e.weight, lightest.get(e.head, e.weight))
    lowered = tuple(
        Edge(e.id, e.tail, e.head, e.color, e.weight - lightest[e.head] + 1) if e.head != root else e
        for e in graph.edges
    )
    shift = sum(m - 1 for m in lightest.values())
    return constraint, matching + 1, replace(graph, edges=lowered), shift


def min_weight(graph: ColoredDigraph, root: int, alpha) -> int | None:
    """Minimum weight of an arborescence matching the constraint, or None.

    Counts the matching arborescences (None when there are none), lowers
    each non-root vertex's in-weights so its lightest weighs 1, and takes
    one valuation of the lowered graph's coefficient at r = count + 1.  The
    answer is that valuation plus the total lowering.
    """
    plan = _plan(graph, root, alpha)
    if plan is None:
        return None
    constraint, r, lowered, shift = plan
    return valuation(c_alpha_r(lowered, root, constraint, r), r) + shift


def find_min(graph: ColoredDigraph, root: int, alpha) -> tuple[Arborescence, int] | None:
    """A minimum-weight arborescence matching the constraint, with its weight.

    Computes r and the lowered graph once, as `min_weight` does, then
    searches the lowered graph as `find` does: the result is the first
    minimizer by the in-arc id of vertex 1, then 2, and so on, found by at
    most 1 + ceil(log2(d - 1)) questions for a vertex with d candidates.
    A question, a list of the lowered graph's arcs, holds when its
    coefficient at r, the sum of r^w over its matching arborescences, is
    nonzero and has the lowered minimum as its valuation.  One r serves
    every question: deleting arcs never raises the count.  The result is checked
    against the input graph's weights to be an arborescence with the
    requested histogram and the minimum weight (ValueError if not).
    """
    plan = _plan(graph, root, alpha)
    if plan is None:
        return None
    constraint, r, lowered, shift = plan
    target = valuation(c_alpha_r(lowered, root, constraint, r), r)
    arb = _search(lowered, root, constraint, r, lambda value: value != 0 and valuation(value, r) == target)
    if sum(graph.edge(i).weight for i in arb.edge_ids) != target + shift:
        raise ValueError("certificate check failed: the weight differs from the minimum")
    return arb, target + shift
