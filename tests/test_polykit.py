import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modvar import dense, polykit
from modvar.polykit import Poly
from modvar.util import torus_dist

import oracles


def test_zero_poly_has_zero_phase_everywhere():
    p = Poly.zero()
    for n in (0, 1, 7, -3, 10 ** 9):
        assert dense.eval_phase(p, n) == 0.0


def test_quarter_square_phase():
    p = Poly.vanish2((0.25,))
    assert dense.eval_phase(p, 3) == pytest.approx(0.25, abs=1e-15)


def test_irrational_square_phase_matches_exact_rational_oracle():
    c = np.sqrt(2.0)
    p = Poly.vanish2((c,))
    n = 10 ** 4
    # the float c is a dyadic rational, so the oracle reduction is exact
    want = oracles.phase_fraction((0.0, 0.0, c), n)
    assert torus_dist(dense.eval_phase(p, n), want) < 1e-8


def test_phase_range_linear_ramp():
    got = polykit.phase_range(Poly.linear(0.25), 0, 5)
    np.testing.assert_allclose(got, [0.0, 0.25, 0.5, 0.75, 0.0], atol=1e-15)


def test_phase_range_matches_pointwise_eval(rng):
    p = Poly.vanish2(tuple(rng.uniform(-1, 1, size=2)))
    got = polykit.phase_range(p, -5, 11)
    want = [dense.eval_phase(p, n) for n in range(-5, 6)]
    assert np.max(torus_dist(got, want)) < 1e-12


@pytest.mark.parametrize("coeff,n", [
    (0.3333333333333333, 10 ** 6),
    (1.4142135623730951, 12345),
    (-0.7071067811865476, 999983),
])
def test_exact_monomial_phase_matches_fraction_arithmetic(coeff, n):
    got = polykit.phase_range(Poly.linear(coeff), n, 1)
    assert got[0] == oracles.phase_fraction((0.0, coeff), n)


# m 2^k with k down to -120 puts the common denominator 2^E on both sides
# of the uint64 branch (E <= 64) of the range kernel
dyadic = st.builds(math.ldexp, st.integers(-2 ** 53 + 1, 2 ** 53 - 1),
                   st.integers(-120, 4))
coeff = st.one_of(dyadic, st.floats(-1e6, 1e6))
big_n0 = st.one_of(st.integers(-1000, 1000), st.integers(-2 ** 80, 2 ** 80))


@settings(max_examples=300)
@given(st.lists(coeff, min_size=1, max_size=5), big_n0, st.integers(0, 24))
@example([0.0, 0.0, 2.0 ** -70], -(2 ** 64) - 3, 9)
@example([0.5, -(2.0 ** -64), 0.75], 2 ** 63 + 5, 9)
@example([1.0 / 3.0, 2.0 ** -60, -(2.0 ** -52)], -(2 ** 63) - 1, 9)
def test_phase_range_equals_exact_fractions(coeffs, n0, N):
    # both sides round the exact value once, correctly, so they are equal
    p = Poly(tuple(coeffs))
    want = [oracles.phase_fraction(coeffs, n) for n in range(n0, n0 + N)]
    assert polykit.phase_range(p, n0, N).tolist() == want
    assert [dense.eval_phase(p, n) for n in range(n0, n0 + N)] == want


@settings(max_examples=5)
@given(st.lists(coeff, min_size=1, max_size=4), st.integers(65, 120),
       big_n0, st.integers(1, 40))
def test_phase_range_blocks_equal_exact_fractions(coeffs, e_big, n0, extra):
    # one coefficient 2^-e_big forces the big-integer branch, and N crosses
    # a block boundary
    coeffs = tuple(coeffs) + (2.0 ** -e_big,)
    N = polykit._BLOCK + extra
    got = polykit.phase_range(Poly(coeffs), n0, N)
    assert got.tolist() == [oracles.phase_fraction(coeffs, n)
                            for n in range(n0, n0 + N)]
