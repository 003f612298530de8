"""Smoothed and rough modulated averages: the convolution averages of
averaging, and the orbit averages of systems.ww_scan."""

import numpy as np
import pytest

from modvar import polykit
from modvar.averaging import conv_average, modulated_weights
from modvar.bumpkit import SmoothBump, scaled_weight
from modvar.signalkit import Signal
from modvar.systems import (
    CircleRotation,
    SkewProduct,
    ZShift,
    obs_char,
    obs_const,
    obs_indicator,
    obs_skew_char,
    ww_scan,
)
from modvar.util import DomainError, e

import oracles


def test_modulated_weights_zero_phase():
    bump = SmoothBump(0.25)
    M = 8
    w = modulated_weights(bump, M, polykit.Poly.linear(0.0))
    assert w.shape == (M + 1,)
    assert np.array_equal(w, scaled_weight(bump, M) + 0j)


def test_modulated_weights_carries_polynomial_phase():
    bump = SmoothBump(0.25)
    M = 16
    p = polykit.Poly.linear(0.25)
    w = modulated_weights(bump, M, p)
    base = scaled_weight(bump, M)
    ph = np.array([(n % 4) / 4 for n in range(M + 1)])
    assert np.max(np.abs(w - base * e(ph))) < 1e-14


def test_conv_average_of_point_mass_recovers_weights():
    bump = SmoothBump(0.25)
    M = 8
    f = Signal(0, [1.0])
    p = polykit.Poly.linear(0.0)
    out = conv_average(f, bump, M, p)
    w = modulated_weights(bump, M, p)
    assert out.support_start == 0
    assert np.max(np.abs(out.values - w)) < 1e-15


def test_conv_average_matches_loop_oracle(rng):
    bump = SmoothBump(0.25)
    M = 6
    f = Signal(-3, rng.normal(size=20) + 1j * rng.normal(size=20))
    p = polykit.Poly.linear(0.375)
    out = conv_average(f, bump, M, p)
    k = modulated_weights(bump, M, p)
    want = oracles.convolve_loops(f.values, k)
    assert out.support_start == f.support_start
    assert np.max(np.abs(out.values - want)) < 1e-10


def test_orbit_average_constant_is_weight_mass():
    z = ZShift()
    bump = SmoothBump(0.25)
    M = 200
    table = ww_scan(z, obs_const(1.0), 0, [polykit.Poly.linear(0.0)], [M],
                    bump)
    w = scaled_weight(bump, M)
    assert table.values[(0, M)] == pytest.approx(np.sum(w), abs=1e-12)


def test_orbit_average_indicator_counts_window():
    z = ZShift()
    bump = SmoothBump(0.25)
    M = 1000
    table = ww_scan(z, obs_indicator(0, 100), 0, [polykit.Poly.linear(0.0)],
                    [M], bump)
    w = scaled_weight(bump, M)[:101]
    assert table.values[(0, M)] == pytest.approx(np.sum(w), abs=1e-12)


def test_rough_average_indicator():
    z = ZShift()
    table = ww_scan(z, obs_indicator(0, 100), 0, [polykit.Poly.linear(0.0)],
                    [1000], SmoothBump(0.25))
    assert table.rough[0] == pytest.approx(0.1, abs=1e-12)


def test_rough_average_rejects_empty():
    # ww_scan's own refusal, not scaled_weight's "scale N" one
    with pytest.raises(DomainError, match="times must be at least 1"):
        ww_scan(ZShift(), obs_const(), 0, [polykit.Poly.linear(0.0)], [0],
                SmoothBump(0.25))


def test_rotation_resonant_average_is_constant_term():
    # f = e(x) on the orbit of x -> x + 1/8 with matching linear phase
    # theta = -alpha: the modulated track is identically e(omega)
    rot = CircleRotation(alpha=0.125)
    p = polykit.Poly.linear(1 - 0.125)
    table = ww_scan(rot, obs_char(1), 0.25, [p], [800], SmoothBump(0.25))
    assert table.rough[0] == pytest.approx(e(0.25), abs=1e-12)


def test_skew_resonance_hits_unit_modulus():
    # f = e(y) along the skew orbit from (0, 0): y_n = n^2 alpha, so the
    # quadratic phase -alpha n^2 cancels it exactly
    sk = SkewProduct(alpha=0.25)
    p = polykit.Poly.vanish2((1 - 0.25,))
    table = ww_scan(sk, obs_skew_char(1), (0, 0), [p], [500],
                    SmoothBump(0.25))
    assert table.rough[0] == pytest.approx(1.0, abs=1e-12)


def test_orbit_average_matches_manual_sum(rng):
    rot = CircleRotation()
    bump = SmoothBump(0.25)
    M = 64
    p = polykit.Poly.linear(0.25)
    got = ww_scan(rot, obs_char(1), 0.0, [p], [M], bump).values[(0, M)]
    w = scaled_weight(bump, M)
    track = obs_char(1)(rot.orbit_array(0.0, 0, M + 1))
    ph = e(polykit.phase_range(p, 0, M + 1))
    assert got == pytest.approx(complex(np.sum(w * ph * track)), abs=1e-12)
