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
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate

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
GRID_LO, GRID_HI = -0.5, 1.5


class Profile:
    """Compactly supported piecewise-C^4 function with closed-form derivatives.

    fn(t, order) must accept a float array and 0 <= order <= max_order and
    return the order-th derivative at t (zero outside the support).
    """

    def __init__(self, fn, support, max_order=4, breakpoints=(), h=None):
        self.fn = fn
        self.support = (float(support[0]), float(support[1]))
        self.max_order = int(max_order)
        self.breakpoints = tuple(sorted(set(float(b) for b in breakpoints)))
        width = self.support[1] - self.support[0]
        self.h = float(h) if h is not None else max(width, 1e-9) / 2048.0

    def __call__(self, t):
        return self.fn(np.asarray(t, dtype=float), 0)

    def deriv(self, t, order=1):
        if order > self.max_order:
            raise DomainError(
                "profile carries derivatives up to order %d, got %d"
                % (self.max_order, order)
            )
        return self.fn(np.asarray(t, dtype=float), order)


class SmoothBump(Profile):
    """Smooth surrogate of 1_[0,1] with ||phi - 1_[0,1]||_1 <= eps0.

    Rises from 0 to 1 on [0, T] and falls back on [1-T, 1] through the
    degree-9 smoothstep, T = TRANSITION_FRACTION * eps0.  Exactly zero
    outside [0, 1].  Stores a sampled grid over [-0.5, 1.5] for export and
    grid-based checks; evaluation itself is closed form.
    """

    def __init__(self, eps0, h=None, max_order=4):
        if not (0.0 < eps0 <= 0.5):
            raise DomainError("eps0 must lie in (0, 1/2], got %r" % (eps0,))
        if not (1 <= max_order <= 4):
            raise DomainError("max_order must be between 1 and 4")
        self.eps0 = float(eps0)
        self.transition = TRANSITION_FRACTION * self.eps0
        T = self.transition
        h = float(h) if h is not None else T / 128.0

        def fn(t, order):
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

        super().__init__(
            fn, (0.0, 1.0), max_order=max_order,
            breakpoints=(0.0, T, 1.0 - T, 1.0), h=h,
        )
        # Scale-free derivative constants: |phi^(a)| <= C_a * eps0^-a with the
        # same C_a for every eps0, since the transition width is a fixed
        # multiple of eps0.
        rho = TRANSITION_FRACTION
        self.deriv_constants = {
            a: _S4_SUP[a] / rho ** a for a in range(1, max_order + 1)
        }
        # One-sided transitions each integrate to T/2, so the L1 defect is
        # exactly T and the mass is exactly 1 - T.
        self.mass = 1.0 - T
        self.l1_defect = T
        self.grid_t = np.arange(GRID_LO, GRID_HI + 0.5 * h, h)
        self.grid_values = self(self.grid_t)

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
        d = np.abs(self(t) - 1.0)
        return float(integrate.simpson(d, dx=h))


def make_bump(eps0, h=None, max_order=4) -> SmoothBump:
    """Construct the smooth bump for accuracy eps0 in (0, 1/2]."""
    return SmoothBump(eps0, h=h, max_order=max_order)


def scaled_weight(bump: Profile, N: int, n):
    """phi_N(n) = phi(n/N) / N, vectorized in n."""
    N = int(N)
    if N < 1:
        raise DomainError("scale N must be a positive integer")
    return bump(np.asarray(n, dtype=float) / N) / N


class Kernel:
    """A sampled kernel on a uniform real grid, with closed-form evaluator.

    values[i] sits at start + i * spacing.  ``scale`` records the lacunary
    scale lam^k the kernel represents.  When ``fn`` is present the kernel can
    be resampled exactly, e.g. on the integers for discrete convolution.
    """

    def __init__(self, values, start, spacing, scale=1.0, lam=None, fn=None):
        self.values = np.asarray(values)
        self.start = float(start)
        self.spacing = float(spacing)
        self.scale = float(scale)
        self.lam = lam
        self.fn = fn

    @property
    def support(self):
        return (self.start, self.start + (len(self.values) - 1) * self.spacing)

    def __len__(self):
        return len(self.values)

    def __call__(self, t):
        if self.fn is None:
            raise DomainError("kernel has no closed-form evaluator")
        return self.fn(np.asarray(t, dtype=float))

    def mean_defect(self):
        """|integral of the kernel| estimated from its own sample grid."""
        return abs(complex(np.sum(self.values) * self.spacing))

    def at_integers(self):
        """(n0, values at the integers n0, n0+1, ... covering the support)."""
        if self.fn is None:
            raise DomainError("kernel has no closed-form evaluator")
        lo, hi = self.support
        n0 = int(math.floor(lo))
        n1 = int(math.ceil(hi))
        n = np.arange(n0, n1 + 1)
        return n0, self.fn(n.astype(float))


def _psi_closed_form(bump: Profile, lam: float):
    def psi(t):
        t = np.asarray(t, dtype=float)
        return bump(t) - bump(t / lam) / lam

    return psi


def make_psi_kernel(bump: Profile, lam: float, k: int) -> Kernel:
    """psi_k(t) = lam^-k * (phi - phi(./lam)/lam)(lam^-k t).

    Supported in [0, lam^(k+1)]; integrates to zero because both bump terms
    carry the same mass.
    """
    lam = float(lam)
    if not (1.0 < lam <= 2.0):
        raise DomainError("lacunarity lam must lie in (1, 2], got %r" % (lam,))
    k = int(k)
    if k < 0:
        raise DomainError("scale index k must be nonnegative")
    psi = _psi_closed_form(bump, lam)
    scale = lam ** k

    def fn(t):
        return psi(np.asarray(t, dtype=float) / scale) / scale

    spacing = bump.h * scale
    hi = lam ** (k + 1)
    t = np.arange(0.0, hi + 0.5 * spacing, spacing)
    return Kernel(fn(t), 0.0, spacing, scale=scale, lam=lam, fn=fn)


def psi_floor_index(s_floor, a0=DEFAULT_A0) -> int:
    """Lowest scale index retained when a level-s floor is imposed."""
    if s_floor is None:
        return 1
    return max(1, math.ceil(2.0 ** (float(s_floor) / float(a0))))


def make_Psi(bump: Profile, lam: float, k: int, s_floor=None, a0=DEFAULT_A0) -> Kernel:
    """Partial sum Psi_k = sum_{j0 <= j <= k} psi_j, telescoped in closed form.

    j0 = 1 without a floor, else ceil(2^(s_floor/a0)).  The telescoped form is
    phi(./lam^j0)/lam^j0 - phi(./lam^(k+1))/lam^(k+1); tests compare it to the
    explicit sum of make_psi_kernel outputs.
    """
    lam = float(lam)
    if not (1.0 < lam <= 2.0):
        raise DomainError("lacunarity lam must lie in (1, 2], got %r" % (lam,))
    k = int(k)
    j0 = psi_floor_index(s_floor, a0)
    if k < j0:
        raise DomainError(
            "empty kernel: upper scale k=%d is below the lower cutoff j0=%d"
            % (k, j0)
        )
    a, b = lam ** j0, lam ** (k + 1)

    def fn(t):
        t = np.asarray(t, dtype=float)
        return bump(t / a) / a - bump(t / b) / b

    spacing = bump.h * lam ** k
    t = np.arange(0.0, b + 0.5 * spacing, spacing)
    return Kernel(fn(t), 0.0, spacing, scale=lam ** k, lam=lam, fn=fn)


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
        self._tables = {}

    def window(self, M, b0):
        """chi((arange(M) - b0) / M) bit for bit, for grid index 0 <= b0 < M.

        Slices one read-only table of chi at k/M, k = -(M-1)..M-1, built on
        first use for each M and kept on this instance.
        """
        M, b0 = int(M), int(b0)
        if not (0 <= b0 < M):
            raise DomainError("grid index %d outside 0..%d" % (b0, M - 1))
        table = self._tables.get(M)
        if table is None:
            table = self(np.arange(-(M - 1), M) / M)
            table.flags.writeable = False
            self._tables[M] = table
        return table[M - 1 - b0: 2 * M - 1 - b0]

    def __call__(self, beta):
        t = torus_dist(beta)
        R = self.radius
        out = np.ones_like(t)
        out[t >= 2.0 * R] = 0.0
        mid = (t > R) & (t < 2.0 * R)
        out[mid] = _S4[0]((2.0 * R - t[mid]) / R)
        return out


def make_chi(s, a0=DEFAULT_A0) -> ChiCutoff:
    return ChiCutoff(s, a0=a0)


def export_profile_csv(profile, path):
    """Write (t, value) samples of a Profile or Kernel to CSV."""
    from .util import write_csv

    if isinstance(profile, Kernel):
        t = profile.start + np.arange(len(profile.values)) * profile.spacing
        v = profile.values
    else:
        lo, hi = profile.support
        t = np.arange(lo, hi + 0.5 * profile.h, profile.h)
        v = profile(t)
    rows = [(float(ti), vi) for ti, vi in zip(t, np.asarray(v))]
    write_csv(path, ("t", "value"), rows)
