"""Polynomially modulated averaging operators.

The smoothed average of a signal f at scale M with polynomial phase P is

    A_M^P f(x) = sum_n phi(n/M)/M * e(P(n)) * f(x - n),

a discrete convolution against the modulated bump weights.  The dynamical
variant replaces f(x - n) by an observable sampled along an orbit, and the
rough variant drops the smooth weight in favour of the plain Birkhoff
normalization (1/N) sum_{n=1..N}.
"""

from __future__ import annotations

import numpy as np

from . import polykit, signalkit
from .bumpkit import Profile, scaled_weight
from .util import DomainError, e


def modulated_weights(bump: Profile, M: int, p: polykit.Poly) -> signalkit.Signal:
    """The kernel phi(n/M)/M * e(P(n)) on n = 0..M as a Signal."""
    M = int(M)
    if M < 1:
        raise DomainError("scale M must be a positive integer")
    n = np.arange(M + 1)
    w = scaled_weight(bump, M, n)
    return signalkit.Signal(0, w * e(polykit.phase_range(p, 0, M + 1)))


def conv_average(f: signalkit.Signal, bump: Profile, M: int, p: polykit.Poly,
                 full=False) -> signalkit.Signal:
    """A_M^P f as a Signal.

    By default the output keeps only the positions where the shorter of the
    two supports sits entirely inside the longer one (no partial-overlap
    boundary terms); full=True keeps the whole convolution support.
    """
    k = modulated_weights(bump, M, p)
    out = signalkit.convolve(f, k)
    if full:
        return out
    short = min(len(f), len(k))
    start = out.support_start + short - 1
    return signalkit.Signal(start, out.values[short - 1: len(out) - short + 1])


def orbit_average(sys, f, omega, bump: Profile, M: int, p: polykit.Poly) -> complex:
    """sum_m phi(m/M)/M * e(P(m)) * f(T^m omega) over m = 0..M."""
    M = int(M)
    if M < 1:
        raise DomainError("scale M must be a positive integer")
    m = np.arange(M + 1)
    w = scaled_weight(bump, M, m) * e(polykit.phase_range(p, 0, M + 1))
    vals = f(sys.orbit_array(omega, 0, M + 1))
    return complex(np.sum(w * vals))


def rough_average(sys, f, omega, N: int, p: polykit.Poly) -> complex:
    """(1/N) sum_{n=1..N} e(P(n)) f(T^n omega)."""
    N = int(N)
    if N < 1:
        raise DomainError("N must be at least 1")
    ph = polykit.phase_range(p, 1, N)
    vals = f(sys.orbit_array(omega, 1, N))
    return complex(np.mean(e(ph) * vals))
