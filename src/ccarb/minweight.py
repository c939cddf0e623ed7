"""Minimum-weight color-constrained arborescences.

For a prime r, replacing every weight w(e) by r^w(e) turns the weighted
determinant coefficient for a constraint into sum_T r^w(T) over the matching
arborescences T.  The r-adic valuation of that value is at least the minimum
weight, with equality exactly when the number of minimum-weight solutions is
not divisible by r.  Taking the minimum valuation over n distinct primes
larger than the edge count m is therefore exact: the number of minimizers is
at most m^n, so it cannot be divisible by all n primes at once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .counting import Arborescence, _certify, _checked_alpha, _checked_root
from .determinant import det_poly, next_prime
from .graph import ColoredDigraph, remove_edge, remove_in_arcs
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
    """
    trimmed = remove_in_arcs(inst.graph, inst.root)
    transformed = ColoredDigraph(
        trimmed.n,
        trimmed.q,
        tuple(replace(e, weight=r ** e.weight) for e in trimmed.edges),
        trimmed.labels,
    )
    reduced = minor(build_laplacian(transformed, "in", weighted=True), inst.root)
    return det_poly(reduced).coeff(inst.alpha)


def valuation(value: int, r: int) -> int:
    """Largest k with r^k dividing `value`; zero is rejected (no valuation)."""
    if value <= 0:
        raise ValueError("valuation needs a positive integer")
    k = 0
    while value % r == 0:
        value //= r
        k += 1
    return k


def _weight_primes(inst: WeightedInstance) -> list[int]:
    # n distinct primes above max(m, 2n); each exceeds m, so the number of
    # minimizers (at most m^n) cannot be divisible by all of them.
    lower = max(len(inst.graph.edges), 2 * inst.graph.n)
    primes: list[int] = []
    candidate = lower
    for _ in range(inst.graph.n):
        candidate = next_prime(candidate)
        primes.append(candidate)
    return primes


def min_weight(inst: WeightedInstance) -> int | None:
    """Minimum weight of an arborescence matching the constraint, or None.

    Evaluates the transformed coefficient for each of the n chosen primes
    and returns the smallest valuation.  A zero coefficient at the first
    prime means no matching arborescence exists at all (the count does not
    depend on the prime), reported as None.
    """
    primes = _weight_primes(inst)
    first = c_alpha_r(inst, primes[0])
    if first == 0:
        return None
    best = valuation(first, primes[0])
    for r in primes[1:]:
        value = c_alpha_r(inst, r)
        best = min(best, valuation(value, r))
    return best


def _attains_min(inst: WeightedInstance, target: int) -> bool:
    # Deleting edges can only raise the minimum, so every valuation is at
    # least `target`; one hit at `target` settles the question early.
    for r in _weight_primes(inst):
        value = c_alpha_r(inst, r)
        if value == 0:
            return False
        if valuation(value, r) == target:
            return True
    return False


def find_min(inst: WeightedInstance) -> tuple[Arborescence, int] | None:
    """A minimum-weight arborescence matching the constraint, with its weight.

    Computes the minimum once, then walks the edges in ascending id and
    deletes any edge whose removal leaves the minimum unchanged.  The edges
    that survive form a minimum-weight solution; that is checked before it
    is returned, and a failed check raises ValueError.
    """
    target = min_weight(inst)
    if target is None:
        return None
    current = inst.graph
    for edge_id in [e.id for e in current.edges]:
        candidate = remove_edge(current, edge_id)
        sub = WeightedInstance(candidate, inst.root, inst.alpha)
        if _attains_min(sub, target):
            current = candidate
    edge_ids = tuple(e.id for e in current.edges)
    _certify(inst.graph, inst.root, inst.alpha, edge_ids)
    if sum(inst.graph.edge(i).weight for i in edge_ids) != target:
        raise ValueError("certificate check failed: the weight differs from the minimum")
    return Arborescence(inst.root, edge_ids), target
