"""Smoothed and rough modulated averages and the orbits they run along."""

import numpy as np
import pytest

from modvar import polykit
from modvar.averaging import (
    conv_average,
    modulated_weights,
    orbit_average,
    orbit_terms,
    rough_average,
)
from modvar.bumpkit import SmoothBump, scaled_weight
from modvar.signalkit import Signal
from modvar.systems import CircleRotation, SkewProduct, ZShift, obs_char, obs_const, obs_indicator, obs_skew_char
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
    terms = orbit_terms(z, obs_const(1.0), 0, M, polykit.Poly.linear(0.0))
    got = orbit_average(terms, bump)
    w = scaled_weight(bump, M)
    assert got == pytest.approx(np.sum(w), abs=1e-12)


def test_orbit_average_indicator_counts_window():
    z = ZShift()
    bump = SmoothBump(0.25)
    M = 1000
    terms = orbit_terms(z, obs_indicator(0, 100), 0, M,
                        polykit.Poly.linear(0.0))
    got = orbit_average(terms, bump)
    w = scaled_weight(bump, M)[:101]
    assert got == pytest.approx(np.sum(w), abs=1e-12)


def test_rough_average_indicator():
    z = ZShift()
    terms = orbit_terms(z, obs_indicator(0, 100), 0, 1000,
                        polykit.Poly.linear(0.0))
    assert rough_average(terms) == pytest.approx(0.1, abs=1e-12)


def test_rough_average_rejects_empty():
    with pytest.raises(DomainError):
        orbit_terms(ZShift(), obs_const(), 0, 0, polykit.Poly.linear(0.0))


def test_rotation_resonant_average_is_constant_term():
    # f = e(x) on the orbit of x -> x + 1/8 with matching linear phase
    # theta = -alpha: the modulated track is identically e(omega)
    rot = CircleRotation(alpha=0.125)
    p = polykit.Poly.linear(1 - 0.125)
    got = rough_average(orbit_terms(rot, obs_char(1), 0.25, 800, p))
    assert got == pytest.approx(e(0.25), abs=1e-12)


def test_skew_resonance_hits_unit_modulus():
    # f = e(y) along the skew orbit from (0, 0): y_n = n^2 alpha, so the
    # quadratic phase -alpha n^2 cancels it exactly
    sk = SkewProduct(alpha=0.25)
    p = polykit.Poly((0.0, 0.0, 1 - 0.25), "general")
    got = rough_average(orbit_terms(sk, obs_skew_char(1), (0, 0), 500, p))
    assert got == pytest.approx(1.0, abs=1e-12)


def test_orbit_average_matches_manual_sum(rng):
    rot = CircleRotation()
    bump = SmoothBump(0.25)
    M = 64
    p = polykit.Poly.linear(0.25)
    got = orbit_average(orbit_terms(rot, obs_char(1), 0.0, M, p), bump)
    w = scaled_weight(bump, M)
    track = obs_char(1)(rot.orbit_array(0.0, 0, M + 1))
    ph = e(polykit.phase_range(p, 0, M + 1))
    assert got == pytest.approx(complex(np.sum(w * ph * track)), abs=1e-12)
