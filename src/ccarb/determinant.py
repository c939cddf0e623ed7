"""Exact determinants of symbolic matrices.

The determinant polynomial is computed over the integers: the matrix is
evaluated once at each point of a dense grid, each point's determinant is
taken exactly by fraction-free (Bareiss) elimination, and the grid values
are interpolated back into a polynomial with integer coefficients.  Every
row is linear in each variable, so the determinant's degree in x_c is at
most the number of rows that contain x_c; the grid axis for x_c holds the
nodes 0..d_c for that count d_c, and the points are taken in row-major
order (the last axis varying fastest).
"""

from __future__ import annotations

import itertools
from typing import Sequence

from .laplacian import SymbolicMatrix
from .polynomials import Poly, interpolate


def _bareiss(rows: list[list[int]]) -> int:
    # Fraction-free elimination (E. H. Bareiss, Math. Comp. 22, 1968).  Each
    # step takes the first row with a nonzero leading entry as the pivot row
    # and maps every later row to (pivot * row - lead * upper) // prev, which
    # Sylvester's identity makes exact; the leading column, now zero, is
    # dropped.  The last pivot is the determinant up to the swaps' sign.
    sign, prev = 1, 1
    while rows:
        index = next((i for i, row in enumerate(rows) if row[0]), -1)
        if index < 0:
            return 0
        if index:
            rows[0], rows[index] = rows[index], rows[0]
            sign = -sign
        upper = rows[0]
        pivot = upper[0]
        rest = []
        for row in rows[1:]:
            lead = row[0]
            if lead:
                row = [(pivot * a - lead * b) // prev for a, b in zip(row, upper)]
            elif pivot != prev:
                row = [pivot * a // prev for a in row]
            del row[0]
            rest.append(row)
        rows, prev = rest, pivot
    return sign * prev


def det_poly(matrix: SymbolicMatrix) -> Poly:
    """Exact integer determinant polynomial of a symbolic matrix.

    Every coefficient is returned as its exact, possibly negative, integer.
    The axis of x_c holds one more node than `matrix.variable_rows` counts
    rows containing x_c; a variable no row contains gets the single node 0.
    """
    shape = tuple(1 + rows for rows in matrix.variable_rows)
    grid = itertools.product(*(range(size) for size in shape))
    return interpolate([_bareiss(matrix.evaluate(point)) for point in grid], shape)


# No engine code calls the functions below.  The benchmark's layer tracer
# (benchmark/spans.py) still wraps them by name, and det_mod_p is the
# tests' independent per-point reference; they go when the tracer's
# targets are re-pinned to the exact engine.

# Primes must fit in half a 64-bit word so products reduce before overflow
# would matter on fixed-width platforms.
PRIME_LIMIT = 1 << 31

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Primes below PRIME_LIMIT in descending order, grown by select_primes.
_PRIMES: list[int] = []


def _is_prime(value: int) -> bool:
    if value < 2:
        return False
    for small in _MR_BASES:
        if value % small == 0:
            return value == small
    d = value - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for base in _MR_BASES:
        x = pow(base, d, value)
        if x in (1, value - 1):
            continue
        for _ in range(s - 1):
            x = x * x % value
            if x == value - 1:
                break
        else:
            return False
    return True


def select_primes(bound: int) -> tuple[int, ...]:
    """Largest primes below PRIME_LIMIT, descending, whose product exceeds `bound`.

    Always returns at least one prime.  The primes are found on first use
    and kept for later calls.
    """
    product = 1
    count = 0
    while product <= bound or not count:
        if count == len(_PRIMES):
            candidate = _PRIMES[-1] - 1 if _PRIMES else PRIME_LIMIT - 1
            while not _is_prime(candidate):
                candidate -= 1
            _PRIMES.append(candidate)
        product *= _PRIMES[count]
        count += 1
    return tuple(_PRIMES[:count])


def det_mod_p(matrix: Sequence[Sequence[int]], p: int) -> int:
    """Determinant over Z_p of an integer matrix, by Gaussian elimination.

    Every entry is reduced mod p first, and each column's pivot is its
    first nonzero residue on or below the diagonal.  The 0x0 matrix has
    determinant 1 (empty product).
    """
    size = len(matrix)
    if size == 0:
        return 1
    rows = [[value % p for value in row] for row in matrix]
    if any(len(row) != size for row in rows):
        raise ValueError("matrix must be square")
    det = 1
    for col in range(size):
        pivot = next((r for r in range(col, size) if rows[r][col]), -1)
        if pivot < 0:
            return 0
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = p - det
        pivot_value = rows[col][col]
        det = det * pivot_value % p
        inverse = pow(pivot_value, -1, p)
        for r in range(col + 1, size):
            factor = rows[r][col]
            if factor:
                scale = factor * inverse % p
                upper = rows[col]
                lower = rows[r]
                for c in range(col, size):
                    lower[c] = (lower[c] - scale * upper[c]) % p
    return det % p


def det_poly_mod_p(matrix: SymbolicMatrix, p: int) -> Poly:
    """`det_poly(matrix)` with every coefficient reduced to [0, p), zeros left out."""
    return {mono: c % p for mono, c in det_poly(matrix).items() if c % p}
