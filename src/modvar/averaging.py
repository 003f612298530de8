"""Polynomially modulated averaging operators.

The smoothed average of a signal f at scale M with polynomial phase P is

    A_M^P f(x) = sum_n phi(n/M)/M * e(P(n)) * f(x - n),

a discrete convolution against the weights, a kernel on Z from n = 0, so
A_M^P f starts where f does.  The dynamical variant replaces f(x - n) by
an observable sampled along an orbit.  The rough variant drops the smooth
weight for the plain Birkhoff normalization (1/N) sum_{n=1..N}: it is the
average the pointwise convergence theorem is about.  Both orbit averages
read the terms e(P(m)) f(T^m omega) of one orbit_terms call.
"""

from __future__ import annotations

import numpy as np

from . import polykit
from .bumpkit import SmoothBump, scaled_weight
from .signalkit import Signal
from .util import DomainError, e


def modulated_weights(bump: SmoothBump, M: int, p: polykit.Poly) -> np.ndarray:
    """The kernel phi(n/M)/M * e(P(n)) on Z: its values at n = 0..M."""
    w = scaled_weight(bump, M)
    return w * e(polykit.phase_range(p, 0, len(w)))


def conv_average(f: Signal, bump: SmoothBump, M: int,
                 p: polykit.Poly) -> Signal:
    """A_M^P f as a Signal on the whole convolution support."""
    return Signal(f.support_start,
                  np.convolve(f.values, modulated_weights(bump, M, p)))


def orbit_terms(sys, f, omega, N: int, p: polykit.Poly):
    """The pair (e(P(m)), f(T^m omega)) for m = 0..N.

    One phase range and one orbit, which orbit_average and rough_average
    then both read.
    """
    N = int(N)
    if N < 1:
        raise DomainError("N must be at least 1")
    return (e(polykit.phase_range(p, 0, N + 1)),
            f(sys.orbit_array(omega, 0, N + 1)))


def orbit_average(terms, bump: SmoothBump) -> complex:
    """sum_m phi(m/N)/N * e(P(m)) * f(T^m omega) over m = 0..N, for the
    terms of orbit_terms at N."""
    chars, vals = terms
    N = len(chars) - 1
    w = scaled_weight(bump, N) * chars
    return complex(np.sum(w * vals))


def rough_average(terms) -> complex:
    """(1/N) sum_{n=1..N} e(P(n)) f(T^n omega), for the terms of
    orbit_terms at N."""
    chars, vals = terms
    return complex(np.mean(chars[1:] * vals[1:]))
