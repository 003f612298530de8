"""Polynomial phases with exact mod-1 arithmetic.

Phases are P(n) = sum_j lam_j n^j measured in revolutions, so only P(n) mod 1
matters.  Every float coefficient is a dyadic rational lam_j = p_j / 2^(e_j)
exactly, hence P(n) mod 1 is an integer computation: with E = max_j e_j,

    P(n) mod 1 = (sum_j p_j 2^(E - e_j) n^j  mod 2^E) / 2^E.

The range evaluator phase_range uses this reduction, so the only rounding
anywhere is the final division by 2^E.  This is stronger than
compensated floating-point summation: there is no catastrophic cancellation
to control because nothing is ever cancelled inexactly.  The range kernel
_mod1_range evaluates any integer polynomial mod 2^E over a run of n; the
fixed-point orbits in systems use it too, with E = PREC_BITS.

A Poly is any finite coefficient vector.  linear (degree <= 1) and vanish2
(lam_0 = lam_1 = 0, the drift-free class with coefficient vector
mu = (lam_2, ..., lam_d)) build the two classes the theorem covers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .util import DomainError


@dataclass(frozen=True)
class Poly:
    """Polynomial phase: coeffs[j] multiplies n^j, in revolutions."""

    coeffs: tuple

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        for c in coeffs:
            if not math.isfinite(c):
                raise DomainError("coefficients must be finite")

    @staticmethod
    def linear(theta):
        return Poly((0.0, theta))

    @staticmethod
    def vanish2(mu):
        """Build from mu = (lam_2, ..., lam_d)."""
        return Poly((0.0, 0.0) + tuple(mu))

    @staticmethod
    def zero():
        return Poly((0.0,))


def _dyadic_parts(p: Poly):
    """(numerators scaled to the common denominator 2^E, E)."""
    parts = [float(c).as_integer_ratio() for c in p.coeffs]
    E = max((den.bit_length() - 1 for _num, den in parts), default=0)
    return [num << (E + 1 - den.bit_length()) for num, den in parts], E


def phase_range(p: Poly, n0: int, N: int) -> np.ndarray:
    """P(n) mod 1 for n = n0, ..., n0 + N - 1 as a float array.

    Exact mod 1: the numerators of _dyadic_parts go through _mod1_range, and
    each output rounds once to float.
    """
    N = int(N)
    if N < 0:
        raise DomainError("range length must be nonnegative")
    nums, E = _dyadic_parts(p)
    return _mod1_range(nums, E, n0, N)


# points per block of the big-integer branch of _mod1_range; whole ranges of
# object ints would hold megabytes of temporaries at once
_BLOCK = 8192


def _mod1_range(nums, E, n0, N):
    """(sum_j nums[j] n^j mod 2^E) / 2^E for n = n0, ..., n0 + N - 1.

    Horner's rule over the whole range.  For E <= 64 it runs in uint64
    wraparound arithmetic, exact because 2^E divides 2^64 (n0 is reduced
    mod 2^64 first, so any integer n0 works).  Beyond 64 bits it runs on
    Python integers, _BLOCK points at a time.  Each output is the correctly
    rounded float of its exact value.
    """
    n0, N = int(n0), int(N)
    mod = 1 << E
    mask = mod - 1
    if E <= 64:
        wrap = 1 << 64
        n = np.arange(N, dtype=np.uint64) + np.uint64(n0 % wrap)
        acc = np.zeros(N, dtype=np.uint64)
        for c in reversed(nums):
            acc *= n
            acc += np.uint64(c % wrap)
        return (acc & np.uint64(mask)).astype(float) / float(mod)
    out = np.empty(N)
    for lo in range(0, N, _BLOCK):
        hi = min(lo + _BLOCK, N)
        n = np.arange(n0 + lo, n0 + hi, dtype=object)
        acc = np.zeros(hi - lo, dtype=object)
        for c in reversed(nums):
            acc = (acc * n + c) & mask
        out[lo:hi] = acc / mod
    return out
