"""Measure-preserving system simulators with exact orbit formulas.

Three systems: the shift on Z with counting measure (an infinite, sigma-finite
invariant measure), an irrational circle rotation, and the quadratic skew
product T(x, y) = (x + a, y + 2x + a) on the 2-torus, whose n-th iterate has
the closed form (x + n a, y + 2 n x + n^2 a).

Rotation and skew angles are stored as 120-bit fixed-point integers
(value = scaled / 2^120).  Each orbit coordinate is an integer polynomial in
n (w + n a for the rotation, y + 2 n x + n^2 a for the skew product), which
orbit_array evaluates modulo 2^120 with the phase kernel
polykit._mod1_range, so points never accumulate rounding error: the only
rounding is the final conversion of each coordinate to a float.  The tests
check it against exact scalar orbits that share none of this code.
Defaults are sqrt(2) - 1 and sqrt(3) - 1, badly approximable numbers that
keep desk-scale experiments away from accidental near-resonances.

ww_scan is the one smoothed and rough orbit average.  Observables are
plain callables on coordinate arrays; their builders live at the bottom.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import polykit
from .bumpkit import SmoothBump, scaled_weight
from .util import DomainError, e

PREC_BITS = 120
SCALE = 1 << PREC_BITS


def _isqrt_scaled(m: int) -> int:
    """floor(sqrt(m) * 2^PREC_BITS)."""
    return math.isqrt(m << (2 * PREC_BITS))


ALPHA_ROTATION = _isqrt_scaled(2) - SCALE      # sqrt(2) - 1
ALPHA_SKEW = _isqrt_scaled(3) - SCALE          # sqrt(3) - 1


def _to_scaled(x) -> int:
    """Exact fixed-point image of a dyadic float (or Fraction) mod 1."""
    if isinstance(x, int):
        return 0
    num, den = x.as_integer_ratio()
    if (num << PREC_BITS) % den:
        # non-dyadic rational beyond 120 bits: round, documenting nothing
        # exact was claimed for such inputs
        return round((num << PREC_BITS) / den) % SCALE
    return ((num << PREC_BITS) // den) % SCALE


class ZShift:
    """n -> n + 1 on the integers, counting measure."""

    def orbit_array(self, omega, n0, N):
        return int(omega) + int(n0) + np.arange(int(N), dtype=np.int64)


class _Angled:
    """A system moved by one angle, stored as alpha_scaled = alpha * 2^120:
    set as a float alpha, as the 120-bit integer scaled, or else the class's
    DEFAULT_ANGLE."""

    def __init__(self, alpha=None, scaled=None):
        if scaled is not None:
            self.alpha_scaled = int(scaled) % SCALE
        elif alpha is None:
            self.alpha_scaled = self.DEFAULT_ANGLE
        else:
            self.alpha_scaled = _to_scaled(alpha)

    @property
    def alpha(self):
        """Nearest-float image of the stored angle."""
        return self.alpha_scaled / SCALE


class CircleRotation(_Angled):
    """x -> x + alpha mod 1."""

    DEFAULT_ANGLE = ALPHA_ROTATION

    def orbit_array(self, omega, n0, N):
        return polykit._mod1_range([_to_scaled(omega), self.alpha_scaled],
                                   PREC_BITS, n0, N)


class SkewProduct(_Angled):
    """(x, y) -> (x + alpha, y + 2x + alpha) on the 2-torus.

    Second coordinate of T^n: y + 2 n x + n^2 alpha (exact formula).
    """

    DEFAULT_ANGLE = ALPHA_SKEW

    def orbit_array(self, omega, n0, N):
        x, y = omega
        xs, ys = _to_scaled(x), _to_scaled(y)
        a = self.alpha_scaled
        return np.column_stack((
            polykit._mod1_range([xs, a], PREC_BITS, n0, N),
            polykit._mod1_range([ys, 2 * xs, a], PREC_BITS, n0, N)))


@dataclass(frozen=True)
class ScanTable:
    """ww_scan output by P_grid index and time N: per-(P, N) averages,
    per-P tail oscillation, and the per-P rough average at the last time."""

    values: dict                # (p_index, N) -> complex
    oscillation: dict           # p_index -> max adjacent |difference| in tail
    rough: dict                 # p_index -> complex


def ww_scan(sys, f, omega, P_grid, N_grid, bump: SmoothBump) -> ScanTable:
    """sum_{n<=N} phi(n/N)/N e(P(n)) f(T^n omega) for every (P, N), its
    tail Cauchy oscillation (max |difference| over adjacent times in the
    grid's second half), and the rough average (1/N) sum_{n=1..N} e(P(n))
    f(T^n omega) at the last time N.  A term is (weight * e(P(n))) * f.

    Every P must be linear or vanish to degree 2 (the two classes the
    pointwise convergence statement covers), and every time at least 1.
    One orbit serves every P, and one phase range every time of a P.
    """
    polys = tuple(P_grid)
    for p in polys:
        if any(p.coeffs[:2]) and any(p.coeffs[2:]):
            raise DomainError("scan polynomials must be linear or vanish2")
    times = tuple(N_grid)
    if not times:
        raise DomainError("empty time grid")
    if min(times) < 1:
        raise DomainError("scan times must be at least 1")
    n_max = max(times)
    track = np.asarray(f(sys.orbit_array(omega, 0, n_max + 1)), dtype=complex)
    weights = {N: scaled_weight(bump, N) for N in times}
    values, rough = {}, {}
    for i, p in enumerate(polys):
        chars = e(polykit.phase_range(p, 0, n_max + 1))
        rough[i] = complex(np.mean(chars[1:] * track[1:]))
        for N in times:
            values[(i, N)] = complex(
                np.sum(weights[N] * chars[:N + 1] * track[:N + 1]))
    tail = times[len(times) // 2:]
    oscillation = {i: max([abs(values[(i, Nb)] - values[(i, Na)])
                           for Na, Nb in zip(tail, tail[1:])], default=0.0)
                   for i in range(len(polys))}
    return ScanTable(values=values, oscillation=oscillation, rough=rough)


# observable builders


def obs_indicator(lo, hi):
    """1_[lo, hi] on integer points (shift system)."""
    def f(pts):
        pts = np.asarray(pts)
        return ((pts >= lo) & (pts <= hi)).astype(complex)

    return f


def obs_char(m=1):
    """x -> e(m x) on the circle."""
    def f(pts):
        return e(m * np.asarray(pts, dtype=float))

    return f


def obs_skew_char(m=1):
    """(x, y) -> e(m y) on the 2-torus."""
    def f(pts):
        return e(m * np.asarray(pts)[:, 1])

    return f


def obs_const(c=1.0):
    def f(pts):
        return np.full(len(pts), complex(c))

    return f
