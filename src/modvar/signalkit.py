"""Finite complex signals on Z and Z/M: DFT conventions, l2 norms and
modulation.  A signal on Z is a Signal (its values and the start of its
support); a kernel on Z is the 1-d array of its values at n = 0, 1, ...,
and a signal on Z/M is a plain 1-d array of M values.

Conventions fixed here and used everywhere else:

* forward DFT  fhat(b) = sum_n f(n) e(-n b / M)       (numpy.fft.fft),
* inverse      f(n) = (1/M) sum_b fhat(b) e(+n b / M)  (numpy.fft.ifft),

so Parseval reads ||f||^2 = (1/M) sum_b |fhat(b)|^2.  modulate() takes its
phases n * theta mod 1 from polykit.phase_range of the linear polynomial
theta n, which reduces them exactly in integer arithmetic (the float theta
is a dyadic rational), so it is exact for every representable frequency.
"""

from __future__ import annotations

import numpy as np

from . import polykit
from .util import DomainError, e


def l2(values) -> float:
    """The l2 norm of a whole array, the root of numpy's own pairwise sum of
    squared magnitudes: np.linalg.norm hands 1-d input to BLAS dot, whose
    bits depend on the BLAS thread count above 10,000 entries."""
    v = np.asarray(values)
    sq = v.real * v.real + v.imag * v.imag if np.iscomplexobj(v) else v * v
    return float(np.sqrt(np.sum(sq)))


class Signal:
    """Finitely supported complex signal on Z."""

    def __init__(self, support_start, values):
        self.support_start = int(support_start)
        self.values = np.asarray(values, dtype=complex)
        if self.values.ndim != 1:
            raise DomainError("signal values must be one-dimensional")

    def __len__(self):
        return len(self.values)


def modulate(f: Signal, theta) -> Signal:
    """Pointwise multiplication by e(n * theta)."""
    ph = polykit.phase_range(polykit.Poly.linear(theta), f.support_start,
                             len(f))
    return Signal(f.support_start, f.values * e(ph))


def modulate_cyclic(f, b: int) -> np.ndarray:
    """Multiplication of the signal f on Z/M, a 1-d array, by e(n * b / M)
    (an exact grid frequency)."""
    M = len(f)
    ph = (np.arange(M, dtype=np.int64) * (int(b) % M)) % M
    return f * e(ph / M)
