"""Minimum-weight color-constrained arborescences.

For an integer r > 1, replacing every weight w(e) by r^w(e) turns the
weighted determinant coefficient for a constraint into sum_T r^w(T) over the
matching arborescences T, which is r^W times (N + a multiple of r) for the
minimum weight W and the number N of minimizers.  Its r-adic valuation is
therefore W exactly when r does not divide N.  Every arborescence uses one
in-arc of each non-root vertex, so N is at most B, the product of the
non-root in-degrees, and the one base r = B + 1 > N makes a single
valuation exact (r need not be prime: 0 < N < r, so r does not divide N).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from math import prod

from .counting import Arborescence, _certify, _checked_alpha, _checked_root, _halve_in_arcs
from .determinant import det_poly
from .graph import ColoredDigraph
from .laplacian import build_laplacian, minor

@dataclass(frozen=True)
class WeightedInstance:
    """A weighted problem instance: deduplicated graph, root, color constraint."""

    graph: ColoredDigraph
    root: int
    alpha: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "alpha", _checked_alpha(self.graph.q, self.alpha))
        _checked_root(self.graph, self.root)
        if self.graph.has_self_loops:
            raise ValueError("self-loops are not allowed in weighted instances")
        if not self.graph.weighted:
            raise ValueError("all edges must carry weights")
        if any(count > 1 for count in self.graph.multiplicity_index.values()):
            raise ValueError("duplicate same-color parallel edges; run dedup_min_weight first")


def c_alpha_r(inst: WeightedInstance, r: int) -> int:
    """sum of r^w(T) over the arborescences T matching the constraint.

    Computed as the constraint's coefficient in the determinant of the
    weighted in-degree Laplacian minor under the transformed weights r^w(e).
    Arcs into the root are left in: they touch only the root's row, which
    the minor deletes.
    """
    graph = inst.graph
    transformed = ColoredDigraph(
        graph.n,
        graph.q,
        tuple(replace(e, weight=r ** e.weight) for e in graph.edges),
        graph.labels,
    )
    reduced = minor(build_laplacian(transformed, weighted=True), inst.root)
    return det_poly(reduced).get(inst.alpha, 0)


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


def _valuation_base(inst: WeightedInstance) -> int:
    # One more than the product of the non-root in-degrees, which bounds the
    # number of minimizers, so a positive number of them is not a multiple
    # of it.  The base is 1 only when a non-root vertex has no in-arc; then
    # the coefficient is 0 and no valuation is taken.
    indegree = Counter(e.head for e in inst.graph.edges)
    return prod(indegree[v] for v in range(1, inst.graph.n + 1) if v != inst.root) + 1


def min_weight(inst: WeightedInstance) -> int | None:
    """Minimum weight of an arborescence matching the constraint, or None.

    One valuation of the transformed coefficient at the valuation base, an
    integer above the number of arborescences, is the minimum weight.  A zero
    coefficient means no matching arborescence exists, reported as None.
    """
    r = _valuation_base(inst)
    value = c_alpha_r(inst, r)
    return valuation(value, r) if value else None


def find_min(inst: WeightedInstance) -> tuple[Arborescence, int] | None:
    """A minimum-weight arborescence matching the constraint, with its weight.

    Computes the minimum once, then drops the root's in-arcs and halves each
    other vertex's candidate in-arcs in ascending id, as `find` does: the
    first half goes if the minimum is unchanged without it, and otherwise the
    rest goes.  The arcs left form a minimum-weight solution; that is checked
    before it is returned, and a failed check raises ValueError.
    """
    target = min_weight(inst)
    if target is None:
        return None
    current = _halve_in_arcs(
        inst.graph,
        inst.root,
        lambda candidate: min_weight(WeightedInstance(candidate, inst.root, inst.alpha)) == target,
    )
    edge_ids = tuple(e.id for e in current.edges)
    _certify(inst.graph, inst.root, inst.alpha, edge_ids)
    if sum(inst.graph.edge(i).weight for i in edge_ids) != target:
        raise ValueError("certificate check failed: the weight differs from the minimum")
    return Arborescence(inst.root, edge_ids), target
