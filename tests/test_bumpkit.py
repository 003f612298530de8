import importlib.util
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modvar import bumpkit
from modvar.bumpkit import (ChiCutoff, SmoothBump, make_Psi, make_psi_kernel,
                            psi_floor_index, scaled_weight)
from modvar.util import DomainError


@pytest.fixture(scope="module")
def bump():
    return SmoothBump(0.25)


def test_bump_plateau_and_support(bump):
    assert bump(0.5) == 1.0
    assert bump(-0.1) == 0.0
    assert bump(1.3) == 0.0


@pytest.mark.parametrize("eps0", [0.1, 0.25])
def test_bump_l1_defect_within_budget(eps0):
    b = SmoothBump(eps0)
    assert b.l1_defect <= eps0
    # independent quadrature of |phi - indicator| on a fine grid
    t = np.linspace(-0.5, 1.5, 40001)
    ind = ((t >= 0.0) & (t <= 1.0)).astype(float)
    quad = np.trapezoid(np.abs(b(t) - ind), t)
    assert quad <= eps0


@pytest.mark.parametrize("eps0", [0.1, 0.25])
def test_bump_derivative_bounds_up_to_order_four(eps0):
    b = SmoothBump(eps0)
    t = np.linspace(-0.1, 1.4, 30001)
    assert np.max(np.abs(b(t))) <= 1.0 + 1e-12
    orders = sorted(b.deriv_constants)
    assert orders[-1] >= 4
    for a in orders:
        sup = np.max(np.abs(b.deriv(t, a)))
        assert sup <= b.deriv_constants[a] * eps0 ** (-a) * (1 + 1e-9)


def test_scaled_weight_values(bump):
    w = scaled_weight(bump, 100)
    assert len(w) == 101
    assert w[50] == pytest.approx(0.01)
    # phi vanishes past 1, so phi_N(n) = 0 for every n > N
    assert bump(1.5) == 0.0
    total = sum(scaled_weight(bump, 1000))
    assert abs(total - 1.0) <= 0.25 + 10.0 / 1000


@pytest.mark.parametrize("lam,k", [(1.5, 1), (1.5, 7), (2.0, 3), (2.0, 20)])
def test_psi_kernel_mean_zero(bump, lam, k):
    ker = make_psi_kernel(bump, lam, k)
    assert abs(ker.mean_defect()) <= 1e-9


def test_psi_kernel_support(bump):
    ker = make_psi_kernel(bump, 2.0, 3)
    vals = ker.at_integers()
    assert vals.ndim == 1
    assert len(vals) - 1 <= 10 * 2 ** 3


def test_psi_sum_telescopes_to_Psi(bump):
    # summing the layer kernels must reproduce the two-term closed form
    lam, k = 1.5, 6
    t = np.linspace(-1.0, bump.support[1] * lam ** (k + 1) + 1.0, 4001)
    total = np.zeros_like(t)
    for j in range(1, k + 1):
        total += make_psi_kernel(bump, lam, j)(t)
    closed = bump(t / lam) / lam - bump(t / lam ** (k + 1)) / lam ** (k + 1)
    assert np.max(np.abs(total - closed)) <= 1e-12


def test_make_Psi_matches_layer_sum_and_difference(bump):
    lam = 2.0
    t = np.linspace(-1.0, 80.0, 2001)
    P5 = make_Psi(bump, lam, 5)
    closed = bump(t / lam) / lam - bump(t / lam ** 6) / lam ** 6
    assert np.max(np.abs(P5(t) - closed)) <= 1e-12
    P4 = make_Psi(bump, lam, 4)
    psi5 = make_psi_kernel(bump, lam, 5)
    assert np.max(np.abs((P5(t) - P4(t)) - psi5(t))) <= 1e-12


def test_make_Psi_floor_single_term(bump):
    j0 = psi_floor_index(1)
    single = make_Psi(bump, 1.5, j0, s_floor=1)
    psi = make_psi_kernel(bump, 1.5, j0)
    t = np.linspace(-1.0, 20.0, 1501)
    assert np.max(np.abs(single(t) - psi(t))) <= 1e-12


def test_chi_window_shape():
    chi = ChiCutoff(1)
    assert chi.radius == pytest.approx(2.0 ** -(2.0 ** 0.01), rel=1e-12)
    assert chi.radius == pytest.approx(0.49759519175730593, rel=1e-9)
    for s in (1, 2, 3, 4):
        assert ChiCutoff(s)(0.0) == 1.0
    # the vanishing region is visible once the doubled radius fits the torus
    narrow = ChiCutoff(4, a0=0.125)
    assert 2.0 * narrow.radius + 0.01 < 0.5
    assert narrow(2.0 * narrow.radius + 0.01) == 0.0
    assert narrow(-(2.0 * narrow.radius + 0.01)) == 0.0
    assert narrow(1.0) == 1.0  # periodic in the frequency variable
    mid = narrow(1.5 * narrow.radius)
    assert 0.0 < mid < 1.0


@settings(max_examples=60)
@given(st.integers(1, 4), st.sampled_from([10.0, 2.5, 0.37, 0.125]),
       st.integers(1, 5000), st.data())
def test_chi_window_is_bitwise_the_shifted_evaluation(s, a0, M, data):
    # the window is the nonzeros of the shifted evaluation: scattered into
    # zeros it is that evaluation bit for bit, wrapped round Z/M or not
    chi = ChiCutoff(s, a0=a0)
    for b0 in (0, M - 1, data.draw(st.integers(0, M - 1))):
        want = chi((np.arange(M) - b0) / M)
        idx, vals = chi.window(M, b0)
        assert np.all(np.diff(idx) > 0) and np.all(vals != 0.0)
        got = np.zeros(M)
        got[idx] = vals
        assert got.tobytes() == want.tobytes()
    assert not vals.flags.writeable


def test_chi_window_refuses_index_off_the_grid():
    chi = ChiCutoff(2)
    for b0 in (-1, 97):
        with pytest.raises(DomainError):
            chi.window(97, b0)


@pytest.mark.skipif(importlib.util.find_spec("scipy") is None,
                    reason="scipy, the oracle, is a test extra")
@settings(max_examples=200)
@given(st.integers(3, 4000), st.floats(1e-6, 1.0),
       st.sampled_from([1e-3, 1.0, 1e5]), st.integers(0, 2 ** 32 - 1))
def test_simpson_matches_scipy_bitwise(n, h, scale, seed):
    from scipy import integrate
    y = np.random.default_rng(seed).standard_normal(n) * scale
    got = bumpkit._simpson(y, h)
    want = float(integrate.simpson(y, dx=h))
    # equal as floats: bit for bit, up to the sign of an exact zero
    assert got == want


@settings(max_examples=200)
@given(st.integers(3, 400), st.floats(1e-3, 0.1), st.floats(-1.0, 1.0),
       st.tuples(*[st.floats(-10.0, 10.0)] * 3))
def test_simpson_is_exact_on_quadratics(n, h, x0, coeffs):
    # both parities: the end correction of an even count is exact too
    c0, c1, c2 = coeffs
    t = x0 + h * np.arange(n)
    y = c0 + c1 * t + c2 * t ** 2
    a, b = x0, x0 + h * (n - 1)

    def F(x):
        return c0 * x + c1 * x ** 2 / 2 + c2 * x ** 3 / 3

    scale = (b - a) * float(np.max(np.abs(y)) + 1.0)
    assert abs(bumpkit._simpson(y, h) - (F(b) - F(a))) <= 1e-11 * scale
