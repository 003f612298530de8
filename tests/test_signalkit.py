"""Signals, the DFT convention and modulation."""

import numpy as np
import pytest

from modvar.signalkit import Signal, l2, modulate, modulate_cyclic
from modvar import dense, polykit
from modvar.util import e

import oracles


def _random_cyclic(rng, M):
    return rng.normal(size=M) + 1j * rng.normal(size=M)


# The convention is numpy's fft; the multiplier experiment's dense oracle
# (dense.dft_column, dense.apply) implements it by direct sums.


@pytest.mark.parametrize("M", [1, 2, 3, 8, 17, 64])
def test_dft_matches_dense_oracle(rng, M):
    f = _random_cyclic(rng, M)
    got = dense.dft_column(f, M)
    want = oracles.dft_dense(f)
    assert np.max(np.abs(got - want)) < 1e-9 * max(1.0, np.max(np.abs(want)))
    assert np.max(np.abs(np.fft.fft(f) - want)) < \
        1e-9 * max(1.0, np.max(np.abs(want)))


def test_dft_idft_roundtrip(rng):
    # the all-ones symbol: inverse DFT of the DFT
    f = _random_cyclic(rng, 48)
    back = dense.apply(np.ones(48), f)
    assert np.max(np.abs(back - f)) < 1e-12


def test_dft_parseval(rng):
    f = _random_cyclic(rng, 53)
    fhat = dense.dft_column(f, 53)
    # sum |fhat|^2 = M * sum |f|^2 with the unnormalized forward transform
    assert np.sum(np.abs(fhat) ** 2) == pytest.approx(
        53 * np.sum(np.abs(f) ** 2), rel=1e-12)


def test_dft_of_point_mass_is_flat():
    vals = np.zeros(16, dtype=complex)
    vals[0] = 1.0
    fhat = dense.dft_column(vals, 16)
    assert np.max(np.abs(fhat - 1.0)) < 1e-12


def test_modulate_theta_zero_is_identity(rng):
    f = Signal(-3, rng.normal(size=9) + 0j)
    g = modulate(f, 0.0)
    assert g.support_start == f.support_start
    assert np.array_equal(g.values, f.values)


def test_modulate_half_alternates_sign():
    f = Signal(0, np.ones(6, dtype=complex))
    g = modulate(f, 0.5)
    assert np.max(np.abs(g.values - np.array([1, -1, 1, -1, 1, -1]))) < 1e-15


def test_modulate_preserves_l2(rng):
    f = Signal(5, rng.normal(size=40) + 1j * rng.normal(size=40))
    g = modulate(f, 1 / 3)
    assert l2(g.values) == pytest.approx(l2(f.values), rel=1e-12)


def test_modulate_cyclic_is_exact_grid_phase(rng):
    M = 24
    f = _random_cyclic(rng, M)
    g = modulate_cyclic(f, 7)
    want = f * e(np.arange(M) * 7 / M)
    # phases are reduced mod M before division, so each entry is exact
    assert np.max(np.abs(g - want)) < 1e-12


def test_linear_phase_dyadic_exact():
    # modulate takes its phases from the linear polynomial theta n
    theta = 3 / 16
    got = polykit.phase_range(polykit.Poly.linear(theta), 0, 20)
    want = [(3 * n) % 16 / 16 for n in range(20)]
    assert np.array_equal(got, np.array(want))


def test_linear_phase_matches_fraction_oracle():
    theta = float(np.sqrt(2)) / 8
    got = polykit.phase_range(polykit.Poly.linear(theta), 100, 50)
    want = [oracles.phase_fraction([0.0, theta], n) for n in range(100, 150)]
    assert got.tolist() == want
