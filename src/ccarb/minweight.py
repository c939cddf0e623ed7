"""Minimum-weight color-constrained arborescences.

For an integer r > 1, replacing every weight w(e) by r^w(e) turns the
weighted determinant coefficient for a constraint into sum_T r^w(T) over the
matching arborescences T, which is r^W times (N + a multiple of r) for the
minimum weight W and the number N of minimizers.  Its r-adic valuation is
therefore W exactly when r does not divide N.  N is at most count_alpha, the
number of matching arborescences, so the base r = count_alpha + 1 makes a
single valuation exact (r need not be prime: 0 < N < r).

The coefficient is large.  The engine keeps its work small by dividing each
row by its content: row v holds only v's in-arcs, so it sheds at least r^m_v
for v's lightest in-weight m_v.  Every arborescence weighs at least low, the
sum of m_v over non-root v, so `valuation` sees only the cofactor left after
r^low is divided out; it strips r^(2^j) for falling j, not one r at a time.
"""

from __future__ import annotations

from .counting import Arborescence, _checked_alpha, _checked_root, _search, count_table
from .determinant import det_poly
from .graph import ColoredDigraph, lightest, reaches_all
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


def _plan(graph: ColoredDigraph, root: int, alpha):
    """(constraint, r, minimum weight), or None if nothing matches."""
    constraint = _checked(graph, root, alpha)
    matching = count_table(graph, root).get(constraint, 0)
    if matching == 0:
        return None
    r = matching + 1
    low = sum(e.weight for e in lightest(graph.edges, lambda e: e.head) if e.head != root)
    return constraint, r, low + valuation(c_alpha_r(graph, root, constraint, r) // r**low, r)


def min_weight(graph: ColoredDigraph, root: int, alpha) -> int | None:
    """Minimum weight of an arborescence matching the constraint, or None.

    Counts the matching arborescences (None when there are none) and takes
    one valuation of the weighted coefficient at r = count + 1.
    """
    plan = _plan(graph, root, alpha)
    return None if plan is None else plan[2]


def find_min(graph: ColoredDigraph, root: int, alpha) -> tuple[Arborescence, int] | None:
    """A minimum-weight arborescence matching the constraint, with its weight.

    Computes r and the minimum W once, as `min_weight` does, then searches
    as `find` does: the result is the first minimizer by the in-arc id of
    vertex 1, then 2, and so on, found by at most 1 + ceil(log2(d - 1))
    questions for a vertex with d candidates.  A question, the union of
    the non-root vertices' lists of live in-arcs, holds when its
    coefficient at r, the sum of r^w over its matching arborescences, is
    not a multiple of r^(W + 1).  Every term is a multiple of r^W, and
    fewer than r of them weigh W, so that is when some minimizer is left.  One r serves every question: deleting arcs
    never raises the count.  The result is checked against the graph's
    weights to be an arborescence with the requested histogram and the
    minimum weight (ValueError if not).
    """
    plan = _plan(graph, root, alpha)
    if plan is None:
        return None
    constraint, r, minimum = plan
    arb = _search(graph, root, constraint, r, r ** (minimum + 1))
    if sum(graph.edge(i).weight for i in arb.edge_ids) != minimum:
        raise ValueError("certificate check failed: the weight differs from the minimum")
    return arb, minimum
