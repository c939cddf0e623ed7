import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ccarb.polynomials import crt_combine, interpolate, render_poly

from support import dict_poly_mod, poly_eval, poly_values


@st.composite
def int_polys(draw, low=0, high=100, nvars=None, max_degree=3):
    k = draw(st.integers(0, 3)) if nvars is None else nvars
    n_terms = draw(st.integers(0, 6))
    terms = {}
    for _ in range(n_terms):
        exps = tuple(draw(st.integers(0, max_degree)) for _ in range(k))
        terms[exps] = draw(st.integers(low, high))
    return {exps: coeff for exps, coeff in terms.items() if coeff}


def grid(*sizes):
    """The box with `sizes[c]` nodes on axis c, as points in row-major order."""
    return list(itertools.product(*(range(size) for size in sizes)))


class TestInterpolate:
    def test_line_through_two_points(self):
        assert interpolate({(0,): 1, (1,): 2}) == {(1,): 1, (0,): 1}

    def test_constant(self):
        assert interpolate(dict.fromkeys(grid(3, 2), 9)) == {(0, 0): 9}

    def test_two_variable_round_trip(self):
        target = {(1, 1): 1, (0, 0): 3}
        assert interpolate({point: poly_eval(target, point) for point in grid(2, 2)}) == target

    def test_axes_of_different_lengths(self):
        target = {(2, 0): 5, (1, 1): 7, (0, 0): 1}
        assert interpolate({point: poly_eval(target, point) for point in grid(3, 2)}) == target

    def test_no_variables(self):
        assert interpolate({(): 4}) == {(): 4}

    def test_points_must_form_a_lower_set(self):
        # Without the check, the lone point (1,) would come back as the
        # constant 5 placed on the monomial x1.
        with pytest.raises(ValueError, match="do not form a lower set"):
            interpolate({(1,): 5})
        # (1, 1) is there but (0, 1) below it on axis 1 is not.
        with pytest.raises(ValueError, match="do not form a lower set"):
            interpolate({(0, 0): 1, (1, 0): 2, (1, 1): 3})

    def test_points_must_have_one_length(self):
        # Without the check, both points came back unchanged as a "polynomial".
        with pytest.raises(ValueError, match="different lengths"):
            interpolate({(0,): 1, (0, 0): 2})

    def test_non_integer_coefficients_rejected(self):
        # 0, 0, 1 at x = 0, 1, 2 is x(x-1)/2 = x^2/2 - x/2.
        with pytest.raises(ValueError, match="non-integer coefficient"):
            interpolate({(0,): 0, (1,): 0, (2,): 1})

    @given(int_polys(max_degree=3))
    def test_round_trip_random(self, poly):
        nvars = len(next(iter(poly))) if poly else 2
        values = {point: poly_eval(poly, point) for point in grid(*(4,) * nvars)}
        assert interpolate(values) == poly

    @given(int_polys(low=-(10**12), high=10**12, max_degree=4), st.data())
    def test_signed_round_trip_on_uneven_axes(self, poly, data):
        # Each axis is at least one node longer than the variable's degree
        # and may be longer still; values and coefficients are signed.
        nvars = len(next(iter(poly))) if poly else data.draw(st.integers(0, 3))
        degrees = [max((exps[c] for exps in poly), default=0) for c in range(nvars)]
        sizes = [d + 1 + data.draw(st.integers(0, 2)) for d in degrees]
        assert interpolate({point: poly_eval(poly, point) for point in grid(*sizes)}) == poly

    @given(st.data())
    def test_signed_round_trip_on_lower_sets(self, data):
        # The box of per-axis degrees cut by a total degree, as det_poly
        # evaluates it: signed coefficients on any of its points come back.
        bounds = data.draw(st.lists(st.integers(0, 4), max_size=4))
        total = data.draw(st.integers(0, sum(bounds)))
        points = [point for point in grid(*(1 + bound for bound in bounds)) if sum(point) <= total]
        coeffs = data.draw(st.lists(st.integers(-(10**12), 10**12), min_size=len(points), max_size=len(points)))
        poly = {point: coeff for point, coeff in zip(points, coeffs) if coeff}
        assert interpolate(poly_values(poly, points)) == poly


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
