"""Exact orbit arithmetic for the three model systems."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modvar import polykit
from modvar.bumpkit import SmoothBump
from modvar.systems import (
    ALPHA_ROTATION,
    ALPHA_SKEW,
    SCALE,
    CircleRotation,
    SkewProduct,
    ZShift,
    obs_char,
    obs_const,
    obs_skew_char,
    ww_scan,
)
from modvar.util import DomainError

import oracles


def test_zshift_orbit():
    z = ZShift()
    assert z.orbit_array(-3, 5, 4).tolist() == [
        oracles.shift_orbit_point(-3, n) for n in range(5, 9)]
    assert np.array_equal(z.orbit_array(10, 0, 4), [10, 11, 12, 13])


def test_default_angles_are_quadratic_irrationals():
    assert ALPHA_ROTATION / SCALE == pytest.approx(math.sqrt(2) - 1, abs=1e-15)
    assert ALPHA_SKEW / SCALE == pytest.approx(math.sqrt(3) - 1, abs=1e-15)


def test_rotation_orbit_matches_fraction_oracle():
    rot = CircleRotation()
    for n in [0, 1, 7, 100, 12345]:
        want = oracles.rotation_orbit_point(rot.alpha_scaled, SCALE, 0, n)
        assert rot.orbit_array(0, n, 1)[0] == want


def test_rotation_orbit_array_consistent():
    rot = CircleRotation(alpha=0.25)
    arr = rot.orbit_array(0.5, 3, 6)
    for i, n in enumerate(range(3, 9)):
        assert arr[i] == oracles.rotation_orbit_point(rot.alpha_scaled, SCALE,
                                                      0.5, n)
    # dyadic angle: orbit is exactly periodic with period 4
    assert arr[0] == arr[4]


def test_rotation_dyadic_angle_is_exact():
    rot = CircleRotation(alpha=0.125)
    assert rot.alpha_scaled * 8 == SCALE
    assert rot.orbit_array(0, 8, 1)[0] == 0.0
    assert rot.orbit_array(0, 3, 1)[0] == 0.375


def test_skew_closed_form_matches_stepwise_oracle():
    sk = SkewProduct()
    got = sk.orbit_array((0, 0), 0, 101)
    for n in [1, 2, 10, 57, 100]:
        x, y = oracles.skew_orbit_steps(sk.alpha_scaled, SCALE, (0, 0), n)
        assert got[n, 0] == pytest.approx(float(x), abs=1e-15)
        assert got[n, 1] == pytest.approx(float(y), abs=1e-15)


def test_skew_orbit_point_matches_array():
    sk = SkewProduct(alpha=0.375)
    arr = sk.orbit_array((0.5, 0.25), 2, 20)
    for i, n in enumerate(range(2, 22)):
        x, y = oracles.skew_orbit_point(sk.alpha_scaled, SCALE, (0.5, 0.25), n)
        assert arr[i, 0] == x
        assert arr[i, 1] == y


@settings(max_examples=10)
@given(st.integers(0, SCALE - 1), st.floats(-4.0, 4.0), st.floats(-4.0, 4.0),
       st.one_of(st.integers(-1000, 1000), st.integers(-2 ** 80, 2 ** 80)),
       st.integers(1, 40))
def test_orbit_arrays_equal_orbit_points_across_a_block(a, x, y, n0, extra):
    N = polykit._BLOCK + extra
    ns = range(n0, n0 + N)
    rot = CircleRotation(scaled=a)
    assert rot.orbit_array(x, n0, N).tolist() == [
        oracles.rotation_orbit_point(a, SCALE, x, n) for n in ns]
    sk = SkewProduct(scaled=a)
    assert sk.orbit_array((x, y), n0, N).tolist() == [
        list(oracles.skew_orbit_point(a, SCALE, (x, y), n)) for n in ns]


def test_skew_second_coordinate_formula():
    # with alpha = 1/4 and omega = (0, 0): y_n = n^2 / 4 mod 1
    sk = SkewProduct(alpha=0.25)
    ys = sk.orbit_array((0, 0), 0, 12)[:, 1]
    for n in range(12):
        assert ys[n] == pytest.approx((n * n % 4) / 4.0, abs=1e-15)


def test_observable_builders():
    vals = obs_char(2)(np.array([0.0, 0.25]))
    assert vals[0] == pytest.approx(1.0)
    assert vals[1] == pytest.approx(-1.0)
    pts = np.array([[0.5, 0.25], [0.0, 0.5]])
    sk_vals = obs_skew_char(1)(pts)
    assert sk_vals[0] == pytest.approx(1j)
    assert sk_vals[1] == pytest.approx(-1.0)
    assert np.array_equal(obs_const(2.5)(np.zeros(3)), [2.5, 2.5, 2.5])


def test_ww_scan_rejects_general_polynomials():
    z = ZShift()
    with pytest.raises(DomainError):
        ww_scan(z, obs_const(), 0, [polykit.Poly((0.0, 0.1, 0.3))], [10, 20],
                SmoothBump(0.25))


def test_ww_scan_reads_the_class_from_the_coefficients():
    # a polynomial built without linear or vanish2 is scanned if its
    # coefficients put it in either class: the zero polynomial is linear
    z = ZShift()
    polys = [polykit.Poly((0.0, 0.0, 0.75)), polykit.Poly((0.5, 0.25)),
             polykit.Poly.zero()]
    table = ww_scan(z, obs_const(), 0, polys, [10, 20], SmoothBump(0.25))
    assert set(table.rough) == {0, 1, 2}


def test_ww_scan_shapes_and_oscillation():
    z = ZShift()
    bump = SmoothBump(0.25)
    p = polykit.Poly.linear(0.0)
    times = [8, 16, 32, 64]
    table = ww_scan(z, obs_const(), 0, [p], times, bump)
    assert set(table.values) == {(0, N) for N in times}
    # constant observable at theta 0: every average is the weight mass
    masses = [table.values[(0, N)] for N in times]
    assert max(abs(m - masses[0]) for m in masses) < 0.05
    assert table.oscillation[0] < 0.05
    # the rough average at the last time: the plain mean of the ones
    assert table.rough == {0: 1.0}


def test_ww_scan_refuses_time_below_one_before_the_orbit():
    class NoOrbit:
        def orbit_array(self, omega, n0, N):
            raise AssertionError("orbit built before the time check")

    for times in ([0], [64, 0], [-3]):
        with pytest.raises(DomainError, match="times must be at least 1"):
            ww_scan(NoOrbit(), obs_const(), 0, [polykit.Poly.linear(0.0)],
                    times, SmoothBump(0.25))


def test_rotation_rejects_nothing_on_scaled_input():
    rot = CircleRotation(scaled=12345)
    assert rot.alpha_scaled == 12345
    assert rot.alpha == pytest.approx(12345 / SCALE)
