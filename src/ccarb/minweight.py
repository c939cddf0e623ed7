"""Minimum-weight color-constrained arborescences.

For an integer r > 1, replacing every weight w(e) by r^w(e) turns the
weighted determinant coefficient for a constraint into sum_T r^w(T) over the
matching arborescences T, which is r^W times (N + a multiple of r) for the
minimum weight W and the number N of minimizers.  Its r-adic valuation is
therefore W exactly when r does not divide N.  N is at most count_alpha, the
number of matching arborescences, so the base r = count_alpha + 1 makes a
single valuation exact (r need not be prime: 0 < N < r).

That coefficient is never built at full size.  Each arborescence takes one
in-arc of every non-root vertex v, so it weighs at least low, the sum of
the lightest in-weights m_v; in the reduced costs w - m_v, the first step
of J. Edmonds, "Optimum branchings", J. Res. Nat. Bur. Standards 71B
(1967), it weighs w(T) - low.  The minors are built from the arcs at
their reduced costs (`_reduced`), worth r^(w - m_v), so their coefficient
is sum_T r^(w(T) - low), and the minimum is low plus its valuation, which
strips r^(2^j) for falling j, not one r at a time.  The same reduced costs
prune `find_min`'s search: an arc into v with w - m_v > W - low is in no
arborescence of weight W or less.
"""

from __future__ import annotations

from .counting import Arborescence, _checked_alpha, _checked_root, _search, count_table
from .determinant import det_poly
from .graph import ColoredDigraph, Edge, check_integer, dedup_min_weight, lightest, reaches_all
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
    where `count` does, on an unweighted graph even if that sum is 0, and
    on an r that is not an integer (`root_minor` trusts its base).
    """
    r = check_integer(r, "base r")
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
    # powers[j] = r^(2^j) for every 2^j <= k; then k's binary digits, highest first.
    powers = [r]
    while value % powers[-1] == 0:
        powers.append(powers[-1] ** 2)
    k = 0
    for j in reversed(range(len(powers) - 1)):
        if value % powers[j] == 0:
            value //= powers[j]
            k += 1 << j
    return k


def _reduced(edges, root: int) -> tuple[list[Edge], int]:
    """Each arc into a non-root vertex v at its reduced cost w - m_v, m_v v's lightest in-weight, and low = sum m_v."""
    floor = {e.head: e.weight for e in lightest(edges, lambda e: e.head) if e.head != root}
    arcs = [tuple.__new__(Edge, (i, u, v, c, w - floor[v])) for i, u, v, c, w in edges if v != root]
    return arcs, sum(floor.values())


def _plan(graph: ColoredDigraph, root: int, alpha):
    """(constraint, r, slack W - low, minimum weight W), or None if nothing matches."""
    constraint = _checked(graph, root, alpha)
    matching = count_table(graph, root).get(constraint, 0)
    if matching == 0:
        return None
    r = matching + 1
    arcs, low = _reduced(graph.edges, root)
    slack = valuation(det_poly(root_minor(graph.n, graph.q, arcs, root, r)).get(constraint, 0), r)
    return constraint, r, slack, low + slack


def min_weight(graph: ColoredDigraph, root: int, alpha) -> int | None:
    """Minimum weight of an arborescence matching the constraint, or None.

    Counts the matching arborescences (None when there are none) and takes
    one valuation of the lowered weighted coefficient at r = count + 1.
    """
    plan = _plan(graph, root, alpha)
    return None if plan is None else plan[3]


def find_min(graph: ColoredDigraph, root: int, alpha) -> tuple[Arborescence, int] | None:
    """A minimum-weight arborescence matching the constraint, with its weight.

    Computes r, the lightest in-weights m_v and the minimum W once, as
    `min_weight` does, then searches as `find` does: the result is the first
    minimizer by the in-arc id of vertex 1, then 2, and so on, found by at
    most 1 + ceil(log2(d - 1)) questions for a vertex with d candidates.
    The search is offered the arcs of `dedup_min_weight(graph)` at their
    reduced costs w - m_v, but none above the slack W - low: no minimizer
    uses one.  A question, the union of the non-root vertices' lists of live
    in-arcs, holds when its coefficient at r, the sum of r^(w(T) - low) over
    its matching arborescences T, is not a multiple of r^(W + 1 - low).
    Every term is a multiple of r^(W - low), and fewer than r of them weigh
    W, so that is when some minimizer is left.  One r serves every question:
    deleting arcs never raises the count.  The result is checked against the
    graph's weights to be an arborescence with the requested histogram and
    the minimum weight (ValueError if not).
    """
    plan = _plan(graph, root, alpha)
    if plan is None:
        return None
    constraint, r, slack, minimum = plan
    offered = [e for e in _reduced(dedup_min_weight(graph).edges, root)[0] if e.weight <= slack]
    arb = _search(graph, root, constraint, offered, r, r ** (slack + 1))
    if sum(graph.edge(i).weight for i in arb.edge_ids) != minimum:
        raise ValueError("certificate check failed: the weight differs from the minimum")
    return arb, minimum
