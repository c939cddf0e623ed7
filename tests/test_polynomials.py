import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ccarb.polynomials import crt_combine, interpolate, render_poly

from support import dict_poly_mod, poly_eval


@st.composite
def mod_polys(draw, p=101, nvars=None, max_degree=3):
    k = draw(st.integers(0, 3)) if nvars is None else nvars
    n_terms = draw(st.integers(0, 6))
    terms = {}
    for _ in range(n_terms):
        exps = tuple(draw(st.integers(0, max_degree)) for _ in range(k))
        terms[exps] = draw(st.integers(0, p - 1))
    return {exps: residue for exps, residue in terms.items() if residue}


class TestInterpolate:
    def test_line_through_two_points(self):
        assert interpolate([1, 2], (2,), 101) == {(1,): 1, (0,): 1}

    def test_constant(self):
        assert interpolate([9] * 6, (3, 2), 101) == {(0, 0): 9}

    def test_two_variable_round_trip(self):
        p = 101
        target = {(1, 1): 1, (0, 0): 3}
        values = [poly_eval(target, (i, j)) % p for i in range(2) for j in range(2)]
        assert interpolate(values, (2, 2), p) == target

    def test_axes_of_different_lengths(self):
        # Row-major order: the last axis varies fastest.
        p = 101
        target = {(2, 0): 5, (1, 1): 7, (0, 0): 1}
        values = [poly_eval(target, (i, j)) % p for i in range(3) for j in range(2)]
        assert interpolate(values, (3, 2), p) == target

    def test_no_variables(self):
        assert interpolate([4], (), 7) == {(): 4}

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="grid shape mismatch"):
            interpolate([1], (2,), 101)

    def test_points_must_be_distinct(self):
        # Nodes 0, 1, 2 are not distinct mod 2.
        with pytest.raises(ValueError, match="distinct"):
            interpolate([1, 2, 3], (3,), 2)

    @given(mod_polys(p=101, max_degree=3))
    def test_round_trip_random(self, poly):
        p = 101
        nvars = len(next(iter(poly))) if poly else 2
        shape = (4,) * nvars
        values = [poly_eval(poly, idx) % p for idx in itertools.product(range(4), repeat=nvars)]
        assert interpolate(values, shape, p) == poly


class TestCrt:
    def test_pair(self):
        assert crt_combine({3: {(0,): 2}, 5: {(0,): 3}}) == {(0,): 8}

    def test_zero_everywhere_absent(self):
        assert crt_combine({3: {}, 5: {}}) == {}

    def test_round_trip(self):
        rng = random.Random(7)
        primes = (10007, 10009, 10037)
        for _ in range(25):
            terms = {
                (rng.randint(0, 4), rng.randint(0, 4)): rng.randint(1, 10**6 - 1)
                for _ in range(rng.randint(0, 6))
            }
            residues = {p: dict_poly_mod(terms, p) for p in primes}
            assert crt_combine(residues) == terms

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            crt_combine({})


class TestRender:
    def test_linear(self):
        assert render_poly({(1,): 3, (0,): 5}) == "5 + 3 * x1^1"

    def test_zero(self):
        assert render_poly({}) == "0"

    def test_multivariate_order(self):
        assert render_poly({(2, 0): 1, (0, 1): 4}) == "4 * x2^1 + 1 * x1^2"

    def test_constant_only(self):
        assert render_poly({(0, 0): 7}) == "7"
