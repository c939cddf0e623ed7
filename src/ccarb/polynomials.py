"""Sparse multivariate polynomials over Z_p and Z.

A polynomial is a plain dict mapping exponent vectors (tuples of
nonnegative ints, one entry per variable) to coefficients; zero
coefficients are left out, so an empty dict is the zero polynomial.
Residues mod p lie in [0, p).  The module provides exactly what the
determinant engine needs: Lagrange interpolation from a dense grid whose
axis for variable c holds the nodes 0, 1, ..., d_c (values given as one
flat list in row-major order, the last axis varying fastest), and
Chinese-Remainder reconstruction of integer coefficients from residues.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Mapping, Sequence

Poly = dict[tuple[int, ...], int]


def _lagrange_matrix(size: int, p: int) -> list[list[int]]:
    # Nodes 0..size-1.  Rows are coefficient slots:
    # coeffs[k] = sum_i matrix[k][i] * values[i] mod p.
    full = [1]
    for t in range(size):
        nxt = [0] * (len(full) + 1)
        for i, c in enumerate(full):
            nxt[i] = (nxt[i] - c * t) % p
            nxt[i + 1] = (nxt[i + 1] + c) % p
        full = nxt
    matrix = [[0] * size for _ in range(size)]
    for i in range(size):
        quotient = [0] * size
        quotient[size - 1] = full[size]
        for k in range(size - 1, 0, -1):
            quotient[k - 1] = (full[k] + i * quotient[k]) % p
        # prod over j != i of (i - j), for the nodes 0..size-1.
        denom = (-1) ** (size - 1 - i) * math.factorial(i) * math.factorial(size - 1 - i)
        scale = pow(denom, -1, p)
        for k in range(size):
            matrix[k][i] = quotient[k] * scale % p
    return matrix


def interpolate(values: Sequence[int], shape: Sequence[int], p: int) -> Poly:
    """Recover the unique polynomial matching `values` on the grid of `shape`.

    Axis c has the nodes 0..shape[c]-1; `values` lists the grid in
    `itertools.product` order (row-major, the last axis varying fastest).
    One-dimensional Lagrange interpolation is applied along each axis in
    turn, so the result has degree below shape[c] in variable c.
    """
    shape = tuple(shape)
    if any(size < 1 for size in shape) or len(values) != math.prod(shape):
        raise ValueError("grid shape mismatch")
    longest = max(shape, default=0)
    if p <= longest:
        raise ValueError(f"prime {p} must exceed the longest axis, {longest}, so nodes 0..{longest - 1} are distinct")
    matrices = {size: _lagrange_matrix(size, p) for size in set(shape)}
    tensor = [value % p for value in values]
    block = len(tensor)
    for size in shape:
        # Each fiber along this axis holds `size` values `stride` apart inside
        # a run of `block` consecutive values.
        stride = block // size
        matrix = matrices[size]
        transformed = [0] * len(tensor)
        for start in range(0, len(tensor), block):
            for offset in range(start, start + stride):
                fiber = tensor[offset : offset + block : stride]
                for k, row in enumerate(matrix):
                    transformed[offset + k * stride] = sum(map(operator.mul, row, fiber)) % p
        tensor = transformed
        block = stride
    indices = itertools.product(*(range(size) for size in shape))
    return {mono: residue for mono, residue in zip(indices, tensor) if residue}


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
