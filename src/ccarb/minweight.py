"""Minimum-weight color-constrained arborescences.

For an integer r > 1, replacing every weight w(e) by r^w(e) turns the
weighted determinant coefficient for a constraint into sum_T r^w(T) over the
matching arborescences T, which is r^W times (N + a multiple of r) for the
minimum weight W and the number N of minimizers.  Its r-adic valuation is
therefore W exactly when r does not divide N.  Every arborescence uses one
in-arc of each non-root vertex, so N is at most B, the product of the
non-root in-degrees, parallel arcs included, and the one base r = B + 1 > N
makes a single valuation exact (r need not be prime: 0 < N < r, so r does
not divide N).
"""

from __future__ import annotations

from collections import Counter
from math import prod

from .counting import Arborescence, _checked_alpha, _checked_root, _search
from .determinant import det_poly
from .graph import ColoredDigraph, reaches_all
from .laplacian import build_laplacian, minor


def c_alpha_r(graph: ColoredDigraph, root: int, alpha, r: int) -> int:
    """sum of r^w(T) over the root-arborescences T matching the constraint.

    Computed as the constraint's coefficient in the determinant of the
    in-degree Laplacian minor whose arcs carry the values r^w(e).  Arcs into
    the root are left in: they touch only the root's row, which the minor
    deletes.  A graph with a vertex unreachable from the root has no
    arborescence and sums to 0 without a determinant.  Raises ValueError
    where `count` does, and on an unweighted graph even if that sum is 0.
    """
    constraint = _checked_alpha(graph.q, alpha)
    _checked_root(graph, root)
    if not graph.weighted:
        raise ValueError("this operation needs a weighted graph")
    if not reaches_all(graph, root):
        return 0
    return det_poly(minor(build_laplacian(graph, r), root)).get(constraint, 0)


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


def min_weight(graph: ColoredDigraph, root: int, alpha) -> int | None:
    """Minimum weight of an arborescence matching the constraint, or None.

    Takes one valuation of the transformed coefficient at r = B + 1, where
    B, the product of the non-root in-degrees, bounds the number of
    arborescences.  A zero coefficient means no matching arborescence
    exists, reported as None.
    """
    indegree = Counter(e.head for e in graph.edges)
    r = prod(indegree[v] for v in range(1, graph.n + 1) if v != root) + 1
    value = c_alpha_r(graph, root, alpha, r)
    return valuation(value, r) if value else None


def find_min(graph: ColoredDigraph, root: int, alpha) -> tuple[Arborescence, int] | None:
    """A minimum-weight arborescence matching the constraint, with its weight.

    Computes the minimum once, then searches as `find` does, keeping the
    lightest arc of each parallel same-color group and halving each
    vertex's in-arcs while the minimum stays the same.  The result is
    checked to be an arborescence with the requested histogram and the
    minimum weight before it is returned; a failed check raises ValueError.
    """
    constraint = _checked_alpha(graph.q, alpha)
    target = min_weight(graph, root, constraint)
    if target is None:
        return None
    arb = _search(graph, root, constraint, lambda sub: min_weight(sub, root, constraint) == target)
    if sum(graph.edge(i).weight for i in arb.edge_ids) != target:
        raise ValueError("certificate check failed: the weight differs from the minimum")
    return arb, target
