"""Polynomially modulated convolution averages.

The smoothed average of a signal f at scale M with polynomial phase P is

    A_M^P f(x) = sum_n phi(n/M)/M * e(P(n)) * f(x - n),

a discrete convolution against the weights, a kernel on Z from n = 0, so
A_M^P f starts where f does.  The orbit averages, smoothed and rough,
are systems.ww_scan's.
"""

from __future__ import annotations

import numpy as np

from . import polykit
from .bumpkit import SmoothBump, scaled_weight
from .signalkit import Signal
from .util import e


def modulated_weights(bump: SmoothBump, M: int, p: polykit.Poly) -> np.ndarray:
    """The kernel phi(n/M)/M * e(P(n)) on Z: its values at n = 0..M."""
    w = scaled_weight(bump, M)
    return w * e(polykit.phase_range(p, 0, len(w)))


def conv_average(f: Signal, bump: SmoothBump, M: int,
                 p: polykit.Poly) -> Signal:
    """A_M^P f as a Signal on the whole convolution support."""
    return Signal(f.support_start,
                  np.convolve(f.values, modulated_weights(bump, M, p)))
