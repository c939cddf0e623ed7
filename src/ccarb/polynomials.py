"""Sparse multivariate polynomials with integer coefficients.

A polynomial is a plain dict mapping exponent vectors (tuples of
nonnegative ints, one entry per variable) to exact, possibly negative,
integer coefficients; zero coefficients are left out, so an empty dict is
the zero polynomial.  The module provides Newton interpolation over Z on
a lower set of points (with a point, each point one lower in a
coordinate) along axes of nodes 0, 1, 2, ..., and a canonical text form.
"""

from __future__ import annotations

import math
from collections.abc import Mapping

Poly = dict[tuple[int, ...], int]


def interpolate(values: Mapping[tuple[int, ...], int]) -> Poly:
    """Recover the unique polynomial matching `values` whose monomials are its points.

    The points must form a lower set, so each fiber along an axis holds the
    nodes 0..m; otherwise ValueError is raised.  Divided differences along
    every axis give the coefficients in the Newton basis of the products of
    x_c (x_c - 1) ... (x_c - k_c + 1) (N. Dyn and M. S. Floater, J. Approx.
    Theory 177, 2014); only then is that form expanded to monomials axis by
    axis, as on a lower set the two stages do not commute per axis.  A
    remainder in any division means a non-integer coefficient: ValueError.
    """
    table = dict(values)
    points = sorted(table)
    nvars = len(points[0]) if points else 0
    if any(len(point) != nvars for point in points):
        raise ValueError("the points have different lengths")
    axes = []
    for axis in range(nvars):
        # Sorted points reach each fiber in increasing order along the axis.
        fibers: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        for point in points:
            fibers.setdefault(point[:axis] + point[axis + 1 :], []).append(point)
        for fiber in fibers.values():
            if fiber[-1][axis] != len(fiber) - 1:
                raise ValueError(f"the points do not form a lower set: axis {axis + 1} misses a node below {fiber[-1]}")
        axes.append(fibers.values())
    for fibers in axes:
        for fiber in fibers:
            column = [table[point] for point in fiber]
            for j in range(1, len(column)):
                for i in range(len(column) - 1, j - 1, -1):
                    column[i], remainder = divmod(column[i] - column[i - 1], j)
                    if remainder:
                        raise ValueError("the interpolated polynomial has a non-integer coefficient")
            table.update(zip(fiber, column))
    for fibers in axes:
        for fiber in fibers:
            # Horner on a_0 + x (a_1 + (x - 1) (a_2 + ...)); the node 0 adds nothing.
            column = [table[point] for point in fiber]
            for j in range(len(column) - 2, 0, -1):
                for i in range(j, len(column) - 1):
                    column[i] -= j * column[i + 1]
            table.update(zip(fiber, column))
    return {point: coeff for point, coeff in table.items() if coeff}


# No engine code calls crt_combine.  The benchmark's layer tracer
# (benchmark/spans.py) still wraps it by name; it goes when the tracer's
# targets are re-pinned to the exact engine.
def crt_combine(residue_polys: Mapping[int, Poly]) -> Poly:
    """Reconstruct integer coefficients from residues modulo distinct primes.

    `residue_polys` maps each prime to the polynomial's residues modulo it.
    Each monomial's coefficient is the unique integer in [0, prod p_i)
    matching all residues; a monomial missing from an input counts as
    residue 0 there.
    """
    if not residue_polys:
        raise ValueError("at least one residue polynomial is required")
    product = math.prod(residue_polys)
    weights = {}
    for p in residue_polys:
        rest = product // p
        weights[p] = rest * pow(rest, -1, p)
    monomials = sorted({mono for poly in residue_polys.values() for mono in poly})
    terms: Poly = {}
    for mono in monomials:
        combined = sum(w * residue_polys[p].get(mono, 0) for p, w in weights.items()) % product
        if combined:
            terms[mono] = combined
    return terms


def render_poly(terms: Poly) -> str:
    """Canonical text form: lexicographic monomial order, x_c^0 factors omitted."""
    if not terms:
        return "0"
    parts = []
    for exps in sorted(terms):
        factors = [str(terms[exps])]
        factors.extend(f"x{i}^{e}" for i, e in enumerate(exps, start=1) if e)
        parts.append(" * ".join(factors))
    return " + ".join(parts)
