"""Finite complex signals on Z and Z/M: DFT conventions, modulation,
convolution, and the centered discrete maximal function.

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
from scipy import signal as _sps

from . import polykit
from .bumpkit import Kernel
from .util import DomainError, e


class Signal:
    """Finitely supported complex signal on Z."""

    def __init__(self, support_start, values):
        self.support_start = int(support_start)
        self.values = np.asarray(values, dtype=complex)
        if self.values.ndim != 1:
            raise DomainError("signal values must be one-dimensional")

    def __len__(self):
        return len(self.values)

    def at(self, n):
        """Value at integer n, zero off the stored window."""
        i = int(n) - self.support_start
        if 0 <= i < len(self.values):
            return complex(self.values[i])
        return 0.0 + 0.0j

    def l2(self):
        return float(np.linalg.norm(self.values))

    @staticmethod
    def delta(n=0):
        return Signal(n, [1.0 + 0.0j])


class CyclicSignal:
    """Complex signal on Z/M, indexable mod M."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=complex)
        if self.values.ndim != 1 or len(self.values) == 0:
            raise DomainError("cyclic signal needs a nonempty 1-d value array")

    @property
    def modulus(self):
        return len(self.values)

    def __len__(self):
        return len(self.values)

    def at(self, n):
        return complex(self.values[int(n) % self.modulus])

    def l2(self):
        return float(np.linalg.norm(self.values))


def modulate(f: Signal, theta) -> Signal:
    """Pointwise multiplication by e(n * theta)."""
    ph = polykit.phase_range(polykit.Poly.linear(theta), f.support_start,
                             len(f))
    return Signal(f.support_start, f.values * e(ph))


def modulate_cyclic(f: CyclicSignal, b: int) -> CyclicSignal:
    """Multiplication by e(n * b / M) on Z/M (an exact grid frequency)."""
    M = f.modulus
    ph = (np.arange(M, dtype=np.int64) * (int(b) % M)) % M
    return CyclicSignal(f.values * e(ph / M))


def _kernel_as_signal(k):
    if isinstance(k, Signal):
        return k
    if isinstance(k, Kernel):
        n0, vals = k.at_integers()
        return Signal(n0, vals)
    raise DomainError("kernel must be a Signal or a Kernel with an evaluator")


FFT_THRESHOLD = 4096


def convolve(f: Signal, k, method=None) -> Signal:
    """(f * k)(x) = sum_n k(n) f(x - n), full support arithmetic.

    Direct summation for short outputs, FFT beyond FFT_THRESHOLD; ``method``
    forces "direct" or "fft".
    """
    ks = _kernel_as_signal(k)
    out_len = len(f) + len(ks) - 1
    if method is None:
        method = "fft" if out_len > FFT_THRESHOLD else "direct"
    out = _sps.convolve(f.values, ks.values, mode="full", method=method)
    return Signal(f.support_start + ks.support_start, out)


def maximal_hl(f: Signal, x: int) -> float:
    """sup_{N >= 0} average of |f| over the window [x-N, x+N].

    The supremum is exact: windows beyond the support only dilute the
    average, so only finitely many N matter.
    """
    a = f.support_start
    m = len(f)
    if m == 0:
        return 0.0
    x = int(x)
    mags = np.abs(f.values)
    csum = np.concatenate(([0.0], np.cumsum(mags)))
    n_max = max(abs(x - a), abs(x - (a + m - 1)))
    N = np.arange(n_max + 1)
    lo = np.clip(x - N - a, 0, m)
    hi = np.clip(x + N - a + 1, 0, m)
    sums = csum[hi] - csum[lo]
    return float(np.max(sums / (2.0 * N + 1.0)))


def maximal_hl_profile(f: Signal, xs) -> np.ndarray:
    """maximal_hl at each x in xs."""
    return np.array([maximal_hl(f, x) for x in np.asarray(xs, dtype=int)])
