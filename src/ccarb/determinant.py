"""Exact determinants of symbolic matrices.

The determinant polynomial is computed over the integers in two stages.
First factors are taken out of the rows by one rule: each row sheds its
content, the gcd of its coefficients times x_c when every term carries x_c.
The determinant is linear in each row, so the content is a factor; a
weighted row with entries r^w sheds at least r^m, m its lightest weight,
and a zero row, of content 0, makes the determinant 0.  Shed, a row that is
e_v - e_u or e_v up to sign is a forced arc of Tutte's directed matrix-tree
theorem (W. T. Tutte, Proc. Cambridge Philos. Soc. 44, 1948): adding column
v into column u leaves the row's diagonal alone, so the row and its column
are expanded away, and each row that changes sheds its content again.

Then the rest is packed and interpolated.  Every entry is affine in all the
variables together, so the reduced determinant's degree in x_c is at most
the number d_c of its rows that contain x_c, and its total degree at most
the number t of its rows that contain any variable.  A variable in no row
has degree 0, so it takes no axis and no digit: a color declared but unused
costs nothing.  The others, in order of most rows (the first on ties), are
packed while the packed values fit in PACKED_BITS (Kronecker substitution:
L. Kronecker, J. reine angew. Math. 92, 1882): x_c is set to
2^(bits stride_c), stride_c the product of d + 1 over the variables packed
before it.  The reduced matrix is evaluated at each point of the lower set
{k : k_c <= d_c, sum(k) <= t} over the other variables in some row, each
determinant is taken exactly by fraction-free (Bareiss) elimination, and
the values are interpolated over Z.  Digit i of an interpolated
coefficient, in balanced base 2^bits, is the coefficient of the packed
monomial with k_c = floor(i / stride_c) mod (d_c + 1); bits exceeds the bit
length of the Leibniz bound (the product of the rows' absolute term sums)
by one or more, so no digit carries.  With nothing packed there is one
digit.  The factors taken out scale and shift the result.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence

from .laplacian import SymbolicMatrix
from .polynomials import Poly, interpolate

# CPython divides big integers in quadratic time: longer packed values cost
# more than the axis they replace.
PACKED_BITS = 4096


def _bareiss(rows: list[list[int]]) -> int:
    # Fraction-free elimination (E. H. Bareiss, Math. Comp. 22, 1968).  Each
    # step takes the first row with a nonzero leading entry as the pivot row
    # and maps every later row to (pivot * row - lead * upper) // prev, which
    # Sylvester's identity makes exact; the leading column, now zero, is
    # dropped.  The last pivot is the determinant up to the swaps' sign.
    # Rows are lazy: a row whose lead is 0 would only be scaled by
    # pivot / prev, so it is left as it is and keeps the pivot it was last
    # divided by.  These factors telescope, so its next update divides by
    # that pivot instead, and it is scaled up to date only as a pivot row.
    sign, prev = 1, 1
    lazy = [(1, row) for row in rows]
    while lazy:
        index = next((i for i, (_, row) in enumerate(lazy) if row[0]), -1)
        if index < 0:
            return 0
        if index:
            lazy[0], lazy[index] = lazy[index], lazy[0]
            sign = -sign
        last, upper = lazy[0]
        if last != prev:
            upper = [a * prev // last for a in upper]
        pivot = upper[0]
        rest = []
        for last, row in lazy[1:]:
            lead = row[0]
            if lead:
                row, last = [(pivot * a - lead * b) // last for a, b in zip(row, upper)], pivot
            del row[0]
            rest.append((last, row))
        lazy, prev = rest, pivot
    return sign * prev


def _reduce(matrix: SymbolicMatrix) -> tuple[int, list[int], SymbolicMatrix, list[int], int, int] | None:
    # (scale, exponents, rest, rows, degree, bound) with det(matrix) = scale
    # * x^exponents * det(rest), or None when a row is zero; rows[c - 1]
    # counts rest's rows holding x_c, degree those holding any variable, and
    # bound is the Leibniz bound.  Rows and columns keep their indices until
    # the end, and entries[i] maps each (column, slot) of row i to its
    # coefficient, zeros included until the row is next taken.  One worklist
    # pass: a row is queued again only when its entries change.  rest only
    # renumbers the columns kept and holds the slots left after shedding, so
    # its terms are in range by construction and it is built unchecked.
    entries: dict[int, dict[tuple[int, int], int]] = {}
    for i, terms in enumerate(matrix.rows):
        entries[i] = row = {}
        for column, slot, coeff in terms:
            row[column, slot] = row.get((column, slot), 0) + coeff
    scale, exponents = 1, [0] * matrix.nvars
    queue = list(entries)
    while queue:
        v = queue.pop()
        row = entries.get(v)
        if row is None:
            continue
        # The row taken sheds its content: the gcd of its coefficients, times
        # x_c when every term carries x_c.  A zero row has content 0.  The
        # row is rebuilt only to drop a zero or to shed a content other than 1.
        content = math.gcd(*row.values())
        if not content:
            return None
        if 0 in row.values():
            entries[v] = row = {key: coeff for key, coeff in row.items() if coeff}
        # shared is the one slot of every term, or -1 when two differ.
        for _, shared in row:
            break
        for _, slot in row:
            if slot != shared:
                shared = -1
                break
        if content > 1 or shared > 0:
            scale *= content
            if shared > 0:
                exponents[shared - 1] += 1
                entries[v] = row = {(j, 0): coeff // content for (j, _), coeff in row.items()}
            else:
                entries[v] = row = {key: coeff // content for key, coeff in row.items()}
        # Shed, a forced row is e_v or e_v - e_u up to sign: constants only,
        # the diagonal alone or with one term (u, 0) that cancels it.  Adding
        # column v into column u leaves the diagonal alone in row v, and
        # expanding along row v takes it out; row keeps only (u, 0), if any.
        diagonal = row.get((v, 0))
        if shared < 0 or diagonal is None or len(row) > 2 or len(row) == 2 and sum(row.values()):
            continue
        scale *= diagonal
        del entries[v], row[v, 0]
        # Column v goes into u's, the one column row keeps, or nowhere.
        u = next(iter(row), (None,))[0]
        for i, other in entries.items():
            moved = False
            for slot in [slot for j, slot in other if j == v]:
                coeff = other.pop((v, slot))
                if coeff:
                    moved = True
                    if u is not None:
                        other[u, slot] = other.get((u, slot), 0) + coeff
            if moved:
                queue.append(i)
    index = {j: k for k, j in enumerate(entries)}
    rows, counts, degree, bound = [], [0] * (matrix.nvars + 1), 0, 1
    for row in entries.values():
        rows.append([(index[j], slot, coeff) for (j, slot), coeff in row.items()])
        slots = {slot for _, slot in row}
        for slot in slots:
            counts[slot] += 1
        degree += any(slots)
        bound *= sum(map(abs, row.values()))
    return scale, exponents, SymbolicMatrix._trusted(matrix.nvars, rows), counts[1:], degree, bound


def _digits(packed: int, bits: int, count: int) -> list[int]:
    # The count balanced base-2^bits digits of packed, lowest first, each in
    # (-2^(bits-1), 2^(bits-1)): offset by 2^(bits-1), they are plain bytes.
    width = bits // 8
    offset = int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")
    data = (packed + offset).to_bytes(width * count, "little")
    return [int.from_bytes(data[i : i + width], "little") - (1 << bits - 1) for i in range(0, width * count, width)]


def det_poly(matrix: SymbolicMatrix) -> Poly:
    """Exact integer determinant polynomial of a symbolic matrix.

    Every coefficient is returned as its exact, possibly negative, integer.
    The matrix is reduced, the variables that fit in PACKED_BITS are packed
    into mixed-radix base-2^bits digits, and the lower set of the others is
    evaluated and interpolated (see the module docstring).
    """
    reduced = _reduce(matrix)
    if reduced is None:
        return {}
    scale, exponents, rest, rows, degree, bound = reduced
    # A sign bit over the Leibniz bound, in whole bytes for _digits.
    bits = 8 * -(-(bound.bit_length() + 1) // 8)
    used = [c for c in range(rest.nvars) if rows[c]]
    strides, size = {}, 1
    for c in sorted(used, key=rows.__getitem__, reverse=True):
        if size * (rows[c] + 1) * bits > PACKED_BITS:
            break
        strides[c], size = size, size * (rows[c] + 1)
    free = [c for c in used if c not in strides]
    x = [1 << bits * strides[c] if c in strides else 0 for c in range(rest.nvars)]
    values = {}
    for point in itertools.product(*(range(1 + rows[c]) for c in free)):
        if sum(point) <= degree:
            for c, k in zip(free, point):
                x[c] = k
            values[point] = _bareiss(rest.evaluate(tuple(x)))
    # Digit i holds x_c^(i // stride % radix) for each packed (c, stride, radix).
    radices = [(c, stride, rows[c] + 1) for c, stride in strides.items()]
    poly = {}
    for point, value in interpolate(values).items():
        base = exponents.copy()
        for c, k in zip(free, point):
            base[c] += k
        for i, digit in enumerate(_digits(value, bits, size)):
            if digit:
                mono = base.copy()
                for c, stride, radix in radices:
                    mono[c] += i // stride % radix
                poly[tuple(mono)] = scale * digit
    return poly


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
