import itertools
import math
import random

from ccarb.determinant import (
    PRIME_LIMIT,
    det_mod_p,
    det_poly,
    det_poly_mod_p,
    select_primes,
)
from ccarb.laplacian import SymbolicMatrix

from support import (
    cofactor_det,
    dense_rows,
    dict_poly_mod,
    is_prime_below_2_32,
    poly_eval,
    random_laplacian_style_matrix,
    random_symbolic_matrix,
)


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

    def test_matches_cofactor_on_sparse_signed_dets(self):
        # Sparse rows leave many leading entries 0, so elimination must swap
        # rows, and many grid points are singular.
        rng = random.Random(18)
        swapped = singular = nonzero = 0
        for _ in range(40):
            m = sparse_symbolic_matrix(rng, rng.randint(5, 6), rng.randint(0, 2))
            expected = cofactor_det(m)
            assert det_poly(m) == expected
            nonzero += bool(expected)
            for point in itertools.product(*(range(1 + rows) for rows in m.variable_rows)):
                swapped += m.evaluate(point)[0][0] == 0
                singular += poly_eval(expected, point) == 0
        assert swapped and singular and nonzero

    def test_large_coefficients_exact(self):
        # Entries far above 2^31, so every grid determinant is a large integer.
        rng = random.Random(16)
        for _ in range(20):
            m = random_laplacian_style_matrix(rng, rng.randint(1, 4), rng.randint(0, 2))
            scale = rng.randint(2**40, 2**90)
            scaled = SymbolicMatrix(m.nvars, tuple(tuple((j, k, c * scale) for j, k, c in row) for row in m.rows))
            expected = cofactor_det(scaled)
            assert det_poly(scaled) == expected

    def test_evaluation_consistency(self):
        rng = random.Random(15)
        for _ in range(20):
            m = random_laplacian_style_matrix(rng, 3, 2)
            poly = det_poly(m)
            for p in (10007, 65537):
                point = tuple(rng.randint(0, p - 1) for _ in range(2))
                assert poly_eval(poly, point) % p == det_mod_p(m.evaluate(point), p)
