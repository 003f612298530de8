"""Smooth bump profiles on [0,1] and the kernel families built from them.

The basic object is a smooth approximation phi of the indicator of [0,1]:
phi is supported exactly on [0,1], equals 1 on a central plateau, and rises
and falls through a polynomial transition whose width is proportional to the
accuracy parameter eps0.  All evaluations are closed form (piecewise
polynomial), so derived kernels can be compared pointwise to near machine
precision.

From one bump we build:

* scaled weights phi_N(n) = phi(n/N)/N used by averaging operators,
* difference kernels psi_k(t) = lam^-k psi(lam^-k t) with
  psi(t) = phi(t) - phi(t/lam)/lam, which integrate to zero and telescope,
* partial sums Psi_k of the psi_j, optionally with a lower cutoff floor,
* even frequency cutoffs chi_s with doubly exponential radius in s.

The transition profile is the degree-9 smoothstep (first four derivatives
vanish at both ends), so the bump is C^4 with explicit derivative bounds
|phi^(a)| <= C_a * eps0^-a.  The recorded constants C_a do not depend on
eps0.  Note C_4 is necessarily larger than 100: any profile with
||phi - 1_[0,1]||_1 <= eps0 has a fourth derivative of size at least
384 * eps0^-4 (sharp constant from best L^1 approximation of x^3 by
quadratics), so we record the honest value instead.

The closed-form L1 defect is checked by a numpy composite Simpson rule.
"""

from __future__ import annotations

import math

import numpy as np

from .util import DomainError, torus_dist

# Degree-9 smoothstep: S(0)=0, S(1)=1, S', S'', S''', S'''' vanish at 0 and 1.
_S4_COEFFS = np.zeros(10)
_S4_COEFFS[5:] = (126.0, -420.0, 540.0, -315.0, 70.0)
_S4 = [np.polynomial.Polynomial(_S4_COEFFS)]
for _a in range(5):
    _S4.append(_S4[-1].deriv())

def _poly_sup(a):
    """sup |S4^(a)| over [0,1], exact via critical points of the polynomial."""
    crit = [0.0, 1.0]
    for r in _S4[a + 1].roots():
        if abs(r.imag) < 1e-12 and -1e-12 < r.real < 1.0 + 1e-12:
            crit.append(min(max(r.real, 0.0), 1.0))
    sup = max(abs(float(_S4[a](c))) for c in crit)
    return sup * (1.0 + 1e-12)  # pad a few ulps so the sup is a true bound


_S4_SUP = [_poly_sup(a) for a in range(5)]

# Fraction of the L1 budget eps0 spent on the two transitions.  Close to the
# maximum 1.0 so the derivative constants come out as small as possible, with
# a little slack so quadrature checks of the L1 defect are not borderline.
TRANSITION_FRACTION = 0.96

DEFAULT_A0 = 10.0


class SmoothBump:
    """Smooth surrogate of 1_[0,1] with ||phi - 1_[0,1]||_1 <= eps0.

    Rises from 0 to 1 on [0, T] and falls back on [1-T, 1] through the
    degree-9 smoothstep, T = TRANSITION_FRACTION * eps0.  Exactly zero
    outside [0, 1].  Evaluation is closed form, with derivatives up to order
    4; h = T/128 is the sample spacing of quadrature, export and the kernels
    built from the bump.
    """

    def __init__(self, eps0):
        if not (0.0 < eps0 <= 0.5):
            raise DomainError("eps0 must lie in (0, 1/2], got %r" % (eps0,))
        self.eps0 = float(eps0)
        self.transition = TRANSITION_FRACTION * self.eps0
        self.support = (0.0, 1.0)
        self.h = self.transition / 128.0
        # Scale-free derivative constants: |phi^(a)| <= C_a * eps0^-a with the
        # same C_a for every eps0, since the transition width is a fixed
        # multiple of eps0.
        rho = TRANSITION_FRACTION
        self.deriv_constants = {a: _S4_SUP[a] / rho ** a for a in range(1, 5)}
        # One-sided transitions each integrate to T/2, so the L1 defect is
        # exactly T and the mass is exactly 1 - T.
        self.mass = 1.0 - self.transition
        self.l1_defect = self.transition

    def __call__(self, t):
        return self.deriv(t, 0)

    def deriv(self, t, order=1):
        """The order-th derivative at t, 0 <= order <= 4."""
        if not 0 <= order <= 4:
            raise DomainError("the bump carries derivatives up to order 4, "
                              "got %d" % order)
        T = self.transition
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        rise = (t > 0.0) & (t < T)
        fall = (t > 1.0 - T) & (t < 1.0)
        if order == 0:
            out[(t >= T) & (t <= 1.0 - T)] = 1.0
            out[rise] = _S4[0](t[rise] / T)
            out[fall] = _S4[0]((1.0 - t[fall]) / T)
        else:
            D = _S4[order]
            out[rise] = D(t[rise] / T) / T ** order
            out[fall] = D((1.0 - t[fall]) / T) * (-1.0) ** order / T ** order
        return out

    def l1_distance_to_indicator(self):
        """Quadrature estimate of ||phi - 1_[0,1]||_1 with a Richardson check.

        Returns (estimate, richardson_delta).  The closed form is available
        (the defect is exactly the transition width) but the quadrature route
        is kept as an independent check.
        """
        est = self._l1_defect_quad(self.h)
        est2 = self._l1_defect_quad(self.h / 2.0)
        return est2, abs(est2 - est)

    def _l1_defect_quad(self, h):
        t = np.arange(0.0, 1.0 + 0.5 * h, h)
        return _simpson(np.abs(self(t) - 1.0), h)


def _simpson(y, h):
    """Composite Simpson rule for n >= 3 samples y spaced h apart.

    An odd n is Simpson's rule outright.  An even n takes it on the first
    n - 1 points and Cartwright's end correction on the last interval.
    The operation order is fixed: the tests check the result bit for bit
    against an independent implementation of the same rule.
    """
    n = len(y)
    m = n if n % 2 else n - 1
    total = np.sum(y[0:m - 2:2] + 4.0 * y[1:m - 1:2] + y[2:m:2]) * (h / 3.0)
    if n % 2 == 0:
        h = np.float64(h)
        alpha = (2 * h ** 2 + 3 * h * h) / (6 * (h + h))
        beta = (h ** 2 + 3.0 * h * h) / (6 * h)
        eta = h ** 3 / (6 * h * (h + h))
        total += alpha * y[-1] + beta * y[-2] - eta * y[-3]
    return float(total)


def scaled_weight(bump: SmoothBump, N: int):
    """phi_N(n) = phi(n/N) / N at n = 0..N, as an array (phi vanishes past
    1, so phi_N is zero beyond N)."""
    N = int(N)
    if N < 1:
        raise DomainError("scale N must be a positive integer")
    return bump(np.arange(N + 1, dtype=float) / N) / N


class Kernel:
    """A kernel sampled at t = i * spacing, i = 0..len - 1, with its
    closed-form evaluator fn, so it can also be resampled exactly on the
    integers as a kernel on Z: the 1-d array of its values at n = 0, 1, ...
    """

    def __init__(self, values, spacing, fn):
        self.values = np.asarray(values)
        self.spacing = float(spacing)
        self.fn = fn

    @property
    def support(self):
        return (0.0, (len(self.values) - 1) * self.spacing)

    def __len__(self):
        return len(self.values)

    def __call__(self, t):
        return self.fn(np.asarray(t, dtype=float))

    def mean_defect(self):
        """|integral of the kernel| estimated from its own sample grid."""
        return abs(complex(np.sum(self.values) * self.spacing))

    def at_integers(self):
        """The values at the integers 0, 1, ... covering the support."""
        n = np.arange(int(math.ceil(self.support[1])) + 1)
        return self.fn(n.astype(float))


def _lacunarity(lam):
    """The one check of a lacunarity: 1 < lam <= 2."""
    lam = float(lam)
    if not (1.0 < lam <= 2.0):
        raise DomainError("lacunarity lam must lie in (1, 2], got %r" % (lam,))
    return lam


def _sampled(bump, lam, k, fn):
    """fn sampled at spacing bump.h * lam^k on [0, lam^(k+1)], as a Kernel."""
    spacing = bump.h * lam ** k
    t = np.arange(0.0, lam ** (k + 1) + 0.5 * spacing, spacing)
    return Kernel(fn(t), spacing, fn)


def make_psi_kernel(bump: SmoothBump, lam: float, k: int) -> Kernel:
    """psi_k(t) = lam^-k * (phi - phi(./lam)/lam)(lam^-k t).

    Supported in [0, lam^(k+1)]; integrates to zero because both bump terms
    carry the same mass.
    """
    lam = _lacunarity(lam)
    k = int(k)
    if k < 0:
        raise DomainError("scale index k must be nonnegative")
    scale = lam ** k

    def fn(t):
        t = np.asarray(t, dtype=float) / scale
        return (bump(t) - bump(t / lam) / lam) / scale

    return _sampled(bump, lam, k, fn)


def psi_floor_index(s_floor) -> int:
    """Lowest scale index retained when a level-s floor is imposed."""
    if s_floor is None:
        return 1
    return max(1, math.ceil(2.0 ** (float(s_floor) / DEFAULT_A0)))


def make_Psi(bump: SmoothBump, lam: float, k: int, s_floor=None) -> Kernel:
    """Partial sum Psi_k = sum_{j0 <= j <= k} psi_j, telescoped in closed form.

    j0 = 1 without a floor, else ceil(2^(s_floor/A0)) with A0 = DEFAULT_A0.
    The telescoped form is phi(./lam^j0)/lam^j0 - phi(./lam^(k+1))/lam^(k+1);
    tests compare it to the explicit sum of make_psi_kernel outputs.
    """
    lam = _lacunarity(lam)
    k = int(k)
    j0 = psi_floor_index(s_floor)
    if k < j0:
        raise DomainError(
            "empty kernel: upper scale k=%d is below the lower cutoff j0=%d"
            % (k, j0)
        )
    a, b = lam ** j0, lam ** (k + 1)

    def fn(t):
        t = np.asarray(t, dtype=float)
        return bump(t / a) / a - bump(t / b) / b

    return _sampled(bump, lam, k, fn)


class ChiCutoff:
    """Even frequency cutoff: 1 inside ``radius``, 0 outside ``2 * radius``.

    radius = 2^(-2^(s / (10 a0))).  Arguments are treated as points of R/Z,
    so the cutoff is evaluated at torus distance from 0.
    """

    def __init__(self, s, a0=DEFAULT_A0):
        s = int(s)
        if s < 1:
            raise DomainError("level s must be a positive integer")
        if not (a0 > 0):
            raise DomainError("scale constant a0 must be positive")
        self.s = s
        self.a0 = float(a0)
        self.radius = 2.0 ** (-(2.0 ** (s / (10.0 * self.a0))))
        self._nonzeros = {}

    def window(self, M, b0):
        """The nonzeros of chi((arange(M) - b0) / M) bit for bit, for grid
        index 0 <= b0 < M: (their sorted grid indices, the values there).

        Both are read from the nonzeros of one table of chi at k/M,
        k = -(M-1)..M-1, found on first use for each M and kept (read-only)
        on this instance.  The table holds k and k - M alike, so a window
        that wraps round Z/M is covered exactly.
        """
        M, b0 = int(M), int(b0)
        if not (0 <= b0 < M):
            raise DomainError("grid index %d outside 0..%d" % (b0, M - 1))
        nonzeros = self._nonzeros.get(M)
        if nonzeros is None:
            table = self(np.arange(-(M - 1), M) / M)
            offsets = np.flatnonzero(table)
            nonzeros = (offsets - (M - 1), table[offsets])
            for a in nonzeros:
                a.flags.writeable = False
            self._nonzeros[M] = nonzeros
        offsets, values = nonzeros
        lo, hi = np.searchsorted(offsets, (-b0, M - b0))
        return b0 + offsets[lo:hi], values[lo:hi]

    def __call__(self, beta):
        t = torus_dist(beta)
        R = self.radius
        out = np.ones_like(t)
        out[t >= 2.0 * R] = 0.0
        mid = (t > R) & (t < 2.0 * R)
        out[mid] = _S4[0]((2.0 * R - t[mid]) / R)
        return out
