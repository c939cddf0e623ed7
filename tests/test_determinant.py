import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccarb import determinant
from ccarb.determinant import (
    PACKED_BITS,
    PRIME_LIMIT,
    det_mod_p,
    det_poly,
    det_poly_mod_p,
    select_primes,
)
from ccarb.graph import ColoredDigraph, Edge
from ccarb.laplacian import SymbolicMatrix, build_laplacian, minor, root_minor

from support import (
    bareiss_det,
    cofactor_det,
    dense_rows,
    dict_poly_mod,
    is_prime_below_2_32,
    planted_digraph,
    poly_eval,
    random_laplacian_style_matrix,
    random_symbolic_matrix,
    shaped_digraph,
)


EVALUATE = determinant._evaluate


@pytest.fixture
def evaluated(monkeypatch):
    """The points at which det_poly evaluates its reduced rows, in call order."""
    points = []
    monkeypatch.setattr(determinant, "_evaluate", lambda rows, point: points.append(point) or EVALUATE(rows, point))
    return points


def det_poly_and_points(matrix: SymbolicMatrix) -> tuple[dict, list]:
    """det_poly(matrix) and the points at which it evaluates its reduced rows, in call order."""
    points = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(determinant, "_evaluate", lambda rows, point: points.append(point) or EVALUATE(rows, point))
        return det_poly(matrix), points


def sparse_symbolic_matrix(rng: random.Random, dim: int, nvars: int) -> SymbolicMatrix:
    """About half the entries nonzero, each coefficient drawn from [-3, 3]."""
    rows = []
    for _ in range(dim):
        row = []
        for column in range(dim):
            if rng.random() < 0.5:
                row += [(column, slot, rng.randint(-3, 3)) for slot in range(nvars + 1)]
        rows.append(tuple(row))
    return SymbolicMatrix(nvars, tuple(rows))


def scale_row(m: SymbolicMatrix, index: int, factor: int) -> SymbolicMatrix:
    """The matrix with row `index` (0-based) multiplied by factor: its determinant scales by it."""
    scaled = tuple((j, slot, coeff * factor) for j, slot, coeff in m.rows[index])
    return SymbolicMatrix(m.nvars, (*m.rows[:index], scaled, *m.rows[index + 1 :]))


def grow_first_term(m: SymbolicMatrix, extra: int) -> SymbolicMatrix:
    """The matrix with extra added to the coefficient of row 1's first term."""
    (j, slot, coeff), *rest = m.rows[0]
    return SymbolicMatrix(m.nvars, (((j, slot, coeff + extra), *rest), *m.rows[1:]))


def zero_some_variables(rng: random.Random, m: SymbolicMatrix) -> SymbolicMatrix:
    """Drop the x_c terms of a random subset of variables in each row.

    A variable then appears in fewer rows than the dimension, so its grid
    axis is shorter than dim+1.
    """
    rows = []
    for row in m.rows:
        dropped = set(rng.sample(range(1, m.nvars + 1), rng.randint(0, m.nvars)))
        rows.append(tuple(term for term in row if term[1] not in dropped))
    return SymbolicMatrix(m.nvars, tuple(rows))


@st.composite
def sparse_digraphs(draw):
    """Digraphs on 1..6 vertices and 1..4 colors, most vertices of in-degree 1 or 2, weights 1..4.

    Any vertex can be a tail, so self-loops and arcs from whichever vertex
    is later taken as the root occur, and an arc is sometimes doubled into
    parallel same-color arcs of one weight.
    """
    n = draw(st.integers(1, 6))
    q = draw(st.integers(1, 4))
    edges = []
    for head in range(1, n + 1):
        for _ in range(draw(st.sampled_from((0, 1, 1, 1, 2, 2, 3)))):
            tail, color, weight = draw(st.integers(1, n)), draw(st.integers(1, q)), draw(st.integers(1, 4))
            for _ in range(draw(st.sampled_from((1, 1, 1, 2)))):
                edges.append(Edge(len(edges), tail, head, color, weight))
    return ColoredDigraph(n, q, tuple(edges))


class TestSelectPrimes:
    def test_two_primes_needed(self):
        largest = select_primes(0)[0]
        primes = select_primes(largest)
        assert len(primes) == 2
        assert primes[0] == largest

    def test_single_prime_floor(self):
        assert select_primes(0) == select_primes(1) == (PRIME_LIMIT - 1,)

    def test_consecutive_above_bound(self):
        for bound in (10**4, 2**62, 10**100, 3**2000):
            primes = select_primes(bound)
            assert list(primes) == sorted(set(primes), reverse=True)
            assert all(is_prime_below_2_32(p) and p < PRIME_LIMIT for p in primes)
            assert math.prod(primes) > bound
            assert math.prod(primes[:-1]) <= bound
            # Consecutive: no prime lies between two selected ones.
            for high, low in zip(primes, primes[1:]):
                assert not any(is_prime_below_2_32(v) for v in range(low + 1, high))

    def test_smaller_bound_gives_prefix(self):
        big = select_primes(10**300)
        assert select_primes(10**30) == big[: len(select_primes(10**30))]


class TestDetModP:
    def test_two_by_two(self):
        assert det_mod_p([[2, 1], [1, 2]], 5) == 3

    def test_identity(self):
        assert det_mod_p([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 7) == 1

    def test_singular(self):
        assert det_mod_p([[1, 1], [1, 1]], 7) == 0

    def test_empty_matrix(self):
        assert det_mod_p([], 7) == 1

    def test_needs_pivot_swap(self):
        assert det_mod_p([[0, 1], [1, 0]], 7) == 6

    def test_matches_cofactor_randomly(self):
        rng = random.Random(11)
        for _ in range(100):
            dim = rng.randint(1, 4)
            m = random_symbolic_matrix(rng, dim, 0, low=-5, high=5)
            scalar = [[e[0] for e in row] for row in dense_rows(m)]
            expected = cofactor_det(m).get((), 0)
            for p in (10007, 101):
                assert det_mod_p(scalar, p) == expected % p


class TestDetPolyModP:
    def test_linear_entry(self):
        m = SymbolicMatrix(1, (((0, 0, 2), (0, 1, 1)),))
        assert det_poly_mod_p(m, 101) == {(1,): 1, (0,): 2}

    def test_two_by_two_symbolic(self):
        m = SymbolicMatrix(1, (((0, 1, 1), (1, 0, 1)), ((0, 0, 1), (1, 1, 1))))
        assert det_poly_mod_p(m, 101) == {(2,): 1, (0,): 100}

    def test_matches_cofactor_randomly(self):
        rng = random.Random(12)
        for _ in range(150):
            dim = rng.randint(0, 4)
            nvars = rng.randint(0, 3)
            m = random_symbolic_matrix(rng, dim, nvars)
            p = rng.choice((101, 10007))
            for matrix in (m, zero_some_variables(rng, m)):
                assert det_poly_mod_p(matrix, p) == dict_poly_mod(cofactor_det(matrix), p)


class TestDetPoly:
    def test_constant(self):
        m = SymbolicMatrix(0, (((0, 0, 5),),))
        assert det_poly(m) == {(): 5}

    def test_entry_equal_to_largest_prime(self):
        # An entry equal to the largest prime below PRIME_LIMIT, whole or
        # split into two terms: an engine working modulo that prime alone
        # would return 0.
        largest = select_primes(0)[0]
        half = largest // 2
        for row in (((0, 0, largest),), ((0, 0, half), (0, 0, largest - half))):
            assert det_poly(SymbolicMatrix(0, (row,))) == {(): largest}

    def test_empty_matrix(self):
        m = SymbolicMatrix(2, ())
        assert det_poly(m) == {(0, 0): 1}

    def test_matches_cofactor_on_nonnegative_dets(self):
        rng = random.Random(13)
        for _ in range(60):
            m = random_laplacian_style_matrix(rng, rng.randint(1, 4), rng.randint(0, 3))
            expected = cofactor_det(m)
            assert all(v >= 0 for v in expected.values())
            assert det_poly(m) == expected

    def test_matches_cofactor_on_signed_dets(self):
        rng = random.Random(17)
        for _ in range(200):
            m = random_symbolic_matrix(rng, rng.randint(1, 4), rng.randint(0, 3))
            assert det_poly(m) == cofactor_det(m)

    def test_matches_cofactor_on_sparse_signed_dets(self, evaluated):
        # Sparse rows leave many leading entries 0, so elimination must swap
        # rows, and many of the points det_poly evaluates are singular.
        rng = random.Random(18)
        swapped = singular = nonzero = 0
        for _ in range(40):
            m = sparse_symbolic_matrix(rng, rng.randint(5, 6), rng.randint(0, 2))
            expected = cofactor_det(m)
            evaluated.clear()
            assert det_poly(m) == expected
            nonzero += bool(expected)
            for point in evaluated:
                swapped += m.evaluate(point)[0][0] == 0
                singular += poly_eval(expected, point) == 0
        assert swapped and singular and nonzero

    def test_matches_cofactor_with_short_axes(self):
        # Variables missing from some rows shorten their axes and lower the
        # total degree below the dimension.
        rng = random.Random(12)
        for _ in range(150):
            m = random_symbolic_matrix(rng, rng.randint(0, 4), rng.randint(0, 3))
            short = zero_some_variables(rng, m)
            assert det_poly(short) == cofactor_det(short)

    def test_evaluates_the_lower_set(self, evaluated):
        # Every row of the 4 x 4 matrix holds x1 and x2, and its 12 terms
        # lie in 1..5, so the rows' absolute sums lie in 12..60, the bound in
        # 12^4..60^4, within 2^14..2^24, and the digits have 16 to 32 bits.
        # x1 is packed into 5 digits and x2 into 5 more with stride 5: 25
        # digits, at most 800 bits, so both pack and only 1 point is left.  A
        # row of constants only lowers both bounds to 3: 16 digits, 1 point.
        # Row 1's first coefficient is 1 in both; 2^5000 added to it puts the
        # bound, and the digits, past 5000 bits, so not even x1 packs and
        # both keep their axes: a, b <= 4 with a + b <= 4 is C(6, 2) = 15,
        # where the box has 25, and C(5, 2) = 10 for the second.  Row 1's
        # other coefficients include 1 (full) or 3 and 5 (constants only), so
        # its content stays 1.  Scaling the row instead would not do: the
        # engine divides each row by its content.
        rng = random.Random(19)
        full = tuple(tuple((j, slot, rng.randint(1, 5)) for j in range(4) for slot in range(3)) for _ in range(4))
        one_constant = (tuple(term for term in full[0] if term[1] == 0), *full[1:])
        for rows, packed, grid in ((full, 1, 15), (one_constant, 1, 10)):
            m = SymbolicMatrix(2, rows)
            assert m.rows[0][0][2] == 1
            for matrix, points in ((m, packed), (grow_first_term(m, 2**5000), grid)):
                evaluated.clear()
                assert det_poly(matrix) == cofactor_det(matrix)
                assert len(evaluated) == len(set(evaluated)) == points

    def test_packing_stops_at_packed_bits(self, evaluated):
        # x1 and x2 sit in all 3 rows, so x1, the first, is packed into 4
        # digits of bits bits each, bits = 8 * ceil((bitlen(bound) + 1) / 8)
        # for the product bound of the rows' absolute term sums, 30, 24 and
        # 17 here.  Each row holds a coefficient 1 or -1, so no row has
        # content above 1, and row 1 keeps its -1 when its first
        # coefficient, 5, grows by t: the bound is (30 + t) 408.  With
        # t = ceil(2^1022 / 408) - 30 it lies in [2^1022, 2^1022 + 408), so
        # bitlen(bound) = PACKED_BITS / 4 - 1 and bits = PACKED_BITS / 4:
        # exactly PACKED_BITS packed, and x2's 4 more digits per digit of x1
        # do not fit: the points are x2 = 0..3.  With t = ceil(2^1023 / 408)
        # - 30, one bit longer, bitlen(bound) is one more, so bits grows by
        # 8, nothing is packed and the grid takes all of a, b <= 3 with
        # a + b <= 3: C(5, 2) = 10.
        rng = random.Random(20)
        rows = tuple(tuple((j, k, rng.randint(-5, 5)) for j in range(3) for k in range(3)) for _ in range(3))
        m = SymbolicMatrix(2, rows)
        sums = [sum(abs(term[2]) for term in row) for row in m.rows]
        assert sums == [30, 24, 17] and m.rows[0][0][2] == 5
        assert all(any(abs(term[2]) == 1 for term in row) for row in m.rows)
        # t is the least with (30 + t) 408 >= 2^b: ceil(2^b / 408) - 30.
        limit = PACKED_BITS // 4
        under, over = (grow_first_term(m, -(-(1 << b) // 408) - 30) for b in (limit - 2, limit - 1))
        for matrix, bitlen in ((under, limit - 1), (over, limit)):
            assert math.prod(sum(abs(term[2]) for term in row) for row in matrix.rows).bit_length() == bitlen
        evaluated.clear()
        packed = det_poly(under)
        assert sorted(evaluated) == [(1 << limit, k) for k in range(4)]
        evaluated.clear()
        assert det_poly(over) == cofactor_det(over)
        assert len(evaluated) == len(set(evaluated)) == 10
        assert packed == cofactor_det(under) != {}

    @settings(max_examples=100, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(1, 4), st.integers(0, 3), st.sampled_from((3, 2**5000)))
    def test_a_scaled_row_scales_every_coefficient(self, rng, dim, nvars, factor):
        # A determinant is linear in each row, and the engine divides each
        # row by its content, so scaling a row leaves the points evaluated
        # as they were, even by a factor that would pass PACKED_BITS.
        m = random_symbolic_matrix(rng, dim, nvars)
        det, points = det_poly_and_points(m)
        scaled_det, scaled_points = det_poly_and_points(scale_row(m, rng.randrange(dim), factor))
        assert scaled_det == {mono: factor * coeff for mono, coeff in det.items()}
        assert scaled_points == points

    @settings(max_examples=100, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(1, 4), st.integers(0, 3), st.integers(1, 50))
    def test_unused_variables_change_nothing(self, rng, dim, nvars, k):
        # k variables in no row, declared after the used ones (the same rows,
        # nvars + k variables) or before them (every slot >= 1 shifted up by
        # k), take no place in the variable order: the polynomial is the
        # unpadded one with k zero exponents inserted, and every point that
        # det_poly evaluates is the same.
        m = random_symbolic_matrix(rng, dim, nvars)
        det, points = det_poly_and_points(m)
        after = SymbolicMatrix(nvars + k, m.rows)
        before = SymbolicMatrix(nvars + k, [[(j, slot + k if slot else 0, coeff) for j, slot, coeff in row] for row in m.rows])
        assert det_poly_and_points(after) == ({mono + (0,) * k: coeff for mono, coeff in det.items()}, points)
        assert det_poly_and_points(before) == ({(0,) * k + mono: coeff for mono, coeff in det.items()}, points)

    @pytest.mark.parametrize(
        "rows, expected",
        [
            # Bound 255 = 2^8 - 1 (row sums 255, or 15 and 17): 16-bit digits,
            # where 8-bit ones could not hold -250 or -224.
            pytest.param((((0, 0, -250), (0, 1, 5)),), {(0,): -250, (1,): 5}, id="near-the-bound"),
            pytest.param(
                (((0, 0, -14), (0, 1, 1)), ((1, 0, 16), (1, 1, 1))),
                {(0,): -224, (1,): 2, (2,): 1},
                id="near-the-bound-2x2",
            ),
            # x1 and x2 each sit in the one row, so both pack into 16-bit
            # digits, x2 with stride 2: -200 + 30 * 2^16 + 25 * 2^32.
            pytest.param(
                (((0, 0, -200), (0, 1, 30), (0, 2, 25)),),
                {(0, 0): -200, (1, 0): 30, (0, 1): 25},
                id="near-the-bound-two-variables",
            ),
            # 3^5 (1 - x1)^5: bound 6^5 = 7,776, 16-bit digits whose signs
            # alternate.
            pytest.param(
                tuple(((i, 0, 3), (i, 1, -3)) for i in range(5)),
                {(k,): 243 * math.comb(5, k) * (-1) ** k for k in range(6)},
                id="alternating-signs",
            ),
            # det(I - x1 P) = 1 - x1^6 for the 6-cycle P: five zero digits
            # between two nonzero ones.
            pytest.param(
                tuple(((i, 0, 1), ((i + 1) % 6, 1, -1)) for i in range(6)), {(0,): 1, (6,): -1}, id="zero-digits"
            ),
            # The same cycle alternating x1 and x2: 1 - x1^3 x2^3.  Bound 2^6,
            # 8-bit digits, x1 packed with stride 1 and x2 with stride 4: 16
            # digits, 1 at digit 0 and -1 at digit 3 + 4 * 3 = 15, zeros between.
            pytest.param(
                tuple(((i, 0, 1), ((i + 1) % 6, 1 + i % 2, -1)) for i in range(6)),
                {(0, 0): 1, (3, 3): -1},
                id="zero-digits-two-variables",
            ),
        ],
    )
    def test_packed_digits_decode_exactly(self, rows, expected):
        # Balanced digits: negative ones, ones close to the digit width and
        # zero ones between nonzero ones.
        m = SymbolicMatrix(max(slot for row in rows for _, slot, _ in row), rows)
        assert det_poly(m) == cofactor_det(m) == expected

    def test_unequal_strides_decode_exactly(self, evaluated):
        # det [[2 x1 + 3 x2, 1], [1, x1 + 5 x3]] = 2 x1^2 + 3 x1 x2 + 10 x1 x3
        # + 15 x2 x3 - 1.  x1 sits in 2 rows, x2 and x3 in 1 each, and no
        # row reduces.  The rows' absolute sums 6 and 7 bound the
        # coefficients by 42, 6 bits plus a sign bit: 8-bit digits.  x1 is
        # packed with radix 3 and stride 1, x2 with radix 2 and stride 3, x3
        # with radix 2 and stride 6: 12 digits, 96 bits, so all three pack
        # and the one point is (2^8, 2^24, 2^48).  x1^a x2^b x3^c is digit
        # a + 3 b + 6 c: -1 at 0, 2 at 2, 3 at 4, 10 at 7 and 15 at 9.
        m = SymbolicMatrix(3, (((0, 1, 2), (0, 2, 3), (1, 0, 1)), ((0, 0, 1), (1, 1, 1), (1, 3, 5))))
        expected = {(0, 0, 0): -1, (2, 0, 0): 2, (1, 1, 0): 3, (1, 0, 1): 10, (0, 1, 1): 15}
        assert det_poly(m) == cofactor_det(m) == expected
        assert evaluated == [(1 << 8, 1 << 24, 1 << 48)]
        assert poly_eval(expected, evaluated[0]) == sum(d << 8 * i for i, d in ((0, -1), (2, 2), (4, 3), (7, 10), (9, 15)))

    @settings(max_examples=100, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(0, 4), st.integers(0, 3))
    def test_matches_cofactor_at_every_packing_limit(self, rng, dim, nvars):
        # Digits have at least 8 bits, so 0 packs nothing.  By the digit
        # width and the rows holding each variable, 16, 48 and 96 pack
        # nothing, a prefix or every variable; the default most often packs
        # every variable of these small matrices.
        m = random_symbolic_matrix(rng, dim, nvars)
        for matrix in (m, zero_some_variables(rng, m)):
            expected = cofactor_det(matrix)
            for limit in (0, 16, 48, 96, PACKED_BITS):
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(determinant, "PACKED_BITS", limit)
                    assert det_poly(matrix) == expected

    @settings(max_examples=300, deadline=None)
    @given(sparse_digraphs(), st.integers(1, 5), st.data())
    def test_reduction_matches_cofactor_on_sparse_laplacians(self, graph, r, data):
        # Sparse rows are where the reduction acts: one-arc rows contract
        # (into another column, or alone when the arc comes from the root),
        # single-color rows shed their variable, and a self-loop row fails
        # the forced test.  Arcs worth r^w give rows contents above 1, so a
        # row can shed a content and later contract, or take a contracted
        # column's terms and shed a content again.  The full Laplacian keeps
        # every column, the minor drops one; at r = 1 it is build_laplacian.
        laplacian = root_minor(graph.n + 1, graph.q, graph.edges, graph.n + 1, r)
        for matrix in (laplacian, minor(laplacian, data.draw(st.integers(1, graph.n)))):
            assert det_poly(matrix) == cofactor_det(matrix)

    def test_forced_rows_leave_one_point(self, evaluated):
        # Rooted at 1, vertices 2..5 have one in-arc each, of colors 1, 2, 1
        # and 3.  Every row of the minor contracts: det = x1^2 x2, and only
        # the empty matrix is evaluated, once.  No row holds x1 or x2, so
        # neither is in the variable order and the one point is empty.
        # Unreduced, x1 sits in 2 rows and x2 in 1: both would pack, x2 with
        # stride 3.
        g = ColoredDigraph(5, 3, (Edge(0, 1, 2, 1), Edge(1, 2, 3, 2), Edge(2, 2, 4, 1), Edge(3, 4, 5, 3)))
        assert det_poly(minor(build_laplacian(g), 1)) == {(2, 1): 1}
        assert evaluated == [()]

    def test_single_color_row_shortens_its_axis(self, evaluated):
        # Rooted at 1, vertex 2 has in-arcs 1 -> 2 and 3 -> 2, both of color
        # 1, and vertex 3 has 1 -> 3 of color 1 and 2 -> 3 of color 2.  The
        # minor's rows are (2 x1, -x1) and (-x2, x1 + x2).  Row 1 is x1 times
        # (2, -1), so only row 2 is left holding x1 and x2: both bounds and
        # the total are 1.  The rows' absolute sums 3 and 3 bound every
        # coefficient by 9, 4 bits plus a sign bit, so the digits have 8
        # bits.  x1, the first of the two, is packed into 2 digits with
        # stride 1 and x2 into 2 more with stride 2: x1 = 2^8, x2 = 2^16,
        # one point.  The unreduced minor (x1 in 2 rows, x2 in 1) would pack
        # x1 into 3 digits and x2 with stride 3.  The trees are {1->2, 1->3}, {3->2, 1->3} and
        # {1->2, 2->3}: 2 x1^2 + x1 x2.
        g = ColoredDigraph(3, 3, (Edge(0, 1, 2, 1), Edge(1, 3, 2, 1), Edge(2, 1, 3, 1), Edge(3, 2, 3, 2)))
        assert det_poly(minor(build_laplacian(g), 1)) == {(2, 0): 2, (1, 1): 1}
        assert evaluated == [(1 << 8, 1 << 16)]

    def test_zero_row_needs_no_point(self, evaluated):
        # Vertex 3 has no in-arc, so its row of the minor is zero.
        g = ColoredDigraph(3, 2, (Edge(0, 1, 2, 1), Edge(1, 3, 2, 2)))
        assert det_poly(minor(build_laplacian(g), 1)) == {}
        assert evaluated == []

    def test_large_coefficients_exact(self):
        # Entries far above 2^31, so every grid determinant is a large integer.
        rng = random.Random(16)
        for _ in range(20):
            m = random_laplacian_style_matrix(rng, rng.randint(1, 4), rng.randint(0, 2))
            scale = rng.randint(2**40, 2**90)
            scaled = SymbolicMatrix(m.nvars, tuple(tuple((j, k, c * scale) for j, k, c in row) for row in m.rows))
            expected = cofactor_det(scaled)
            assert det_poly(scaled) == expected

    @pytest.mark.parametrize("n, points", [(8, 1), (40, 41)])
    def test_top_coefficient_reaches_the_leibniz_bound(self, evaluated, n, points):
        # The root minor of a path whose vertices each have 1000 x1 arcs from
        # the root and one color-2 arc from the next vertex (the last from
        # the root): upper-triangular with 1000 x1 + 1 on the diagonal and -1
        # above it, so no row reduces and det = (1000 x1 + 1)^n.  Its top
        # coefficient 1000^n has the bit length of the Leibniz bound
        # 1001 * 1002^(n - 1), and of the diagonals' product 1001^n, so a
        # digit one byte narrower carries.  At n = 8, x1 is packed into 9
        # digits of 88 bits; at n = 40 its 41 digits of 400 bits would pass
        # PACKED_BITS, so it keeps its axis of 41 points and the one digit
        # of each point must hold a 399-bit value.
        assert (1000**n).bit_length() == (1001 * 1002 ** (n - 1)).bit_length() == (1001**n).bit_length()
        rows = [[(i, 1, 1000), (i, 0, 1), *[(i + 1, 0, -1)] * (i + 1 < n)] for i in range(n)]
        assert det_poly(SymbolicMatrix(1, rows)) == {(k,): math.comb(n, k) * 1000**k for k in range(n + 1)}
        assert len(evaluated) == points

    def test_evaluation_consistency(self):
        rng = random.Random(15)
        for _ in range(20):
            m = random_laplacian_style_matrix(rng, 3, 2)
            poly = det_poly(m)
            for p in (10007, 65537):
                point = tuple(rng.randint(0, p - 1) for _ in range(2))
                assert poly_eval(poly, point) % p == det_mod_p(m.evaluate(point), p)


AT_SCALE = [
    # Unweighted, sized by q; at n = 60 the packed x1 would pass
    # PACKED_BITS, so det_poly evaluates it along its axis.
    (60, 2, None, 1, None),
    (30, 3, None, 1, None),
    (20, 4, None, 1, None),
    # Weighted at a base r: rows hold r^w and shed large contents.
    (16, 2, 1000, 3, None),
    (24, 3, 60, 5, None),
    # Sink columns, and rows whose in-arcs share one tail in two or more
    # colors: linear factors that no row content takes out.
    (24, 3, None, 1, "sinks"),
    (24, 3, None, 1, "single_tail"),
    (24, 3, 60, 5, "single_tail"),
]


@pytest.mark.parametrize(
    "n, q, max_weight, r, shape",
    AT_SCALE,
    # A case names its shape only when it has one.
    ids=["-".join(map(str, case[: 4 + bool(case[4])])) for case in AT_SCALE],
)
def test_det_poly_matches_the_unreduced_minor_at_scale(n, q, max_weight, r, shape):
    # The root minor of a seeded digraph far past the oracle's reach, reduced
    # and packed by det_poly, must equal Bareiss elimination of the same
    # minor, unreduced, at random points: a wrong nonzero difference of
    # degree d vanishes at a random point with probability at most d / 2e6
    # (Schwartz-Zippel).
    rng = random.Random(n * q)
    if shape is None:
        graph, root = planted_digraph(rng, n, q, max_weight)
    else:
        graph, root = shaped_digraph(rng, n, q, max_weight, shape)
    matrix = root_minor(n, q, graph.edges, root, r)
    poly = det_poly(matrix)
    assert poly
    for _ in range(2):
        point = tuple(rng.randint(-(10**6), 10**6) for _ in range(q - 1))
        assert poly_eval(poly, point) == bareiss_det(matrix.evaluate(point))
