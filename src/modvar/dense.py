"""Dense oracles for the multiplier experiment: no FFT anywhere.

Each function recomputes a production object of multipliers by direct
summation: Weyl sums one (Q, A, B) at a time through weyl_sum, chi windows
point by point, kernel transforms and applies as O(M^2) sums, variation by
one vr_brute call over all points of a stack, and vrd_operator as a nested
loop over positions, phases, scales and kernel taps, each phase through the
scalar evaluator eval_phase.  arc_multiplier is the one oracle of the
multiplier stacks, which it builds as dense (M,) rows: at an arc centre A/Q
its offsets vanish, so it covers the stacks at the arc centres as well as
those off them.  The multiplier experiment and the tests compare the
production code against these; no other experiment imports this module.
"""

import numpy as np

from . import arithmetic, multipliers, polykit, variation
from .bumpkit import ChiCutoff, make_Psi
from .util import DomainError, e


def weyl_sum(Q, A, B) -> complex:
    """S(A/Q, B/Q) for A = (A_2..A_d), each component read mod Q, with
    exact integer phase reduction (arithmetic.weyl_rows computes whole rows
    by FFT)."""
    Q = int(Q)
    if Q < 1:
        raise DomainError("modulus Q must be positive")
    r = np.arange(1, Q + 1, dtype=np.int64)
    num = (r * (int(B) % Q)) % Q
    rpow = r % Q
    for a in A:
        rpow = (rpow * r) % Q       # now r^j mod Q for the degree of a
        num = (num + (int(a) % Q) * rpow) % Q
    return complex(np.mean(e(-num.astype(float) / Q)))


def eval_phase(p, n: int) -> float:
    """P(n) mod 1 in [0, 1) at one n, exact up to the final float rounding:
    the reduction of polykit (dyadic numerators mod 2^E), by Horner in
    Python integers."""
    n = int(n)
    nums, E = polykit._dyadic_parts(p)
    mod = 1 << E
    acc = 0
    for c in reversed(nums):
        acc = (acc * n + c) % mod
    return acc / mod


def dft_column(values, M):
    """hat(b) = sum_n v(n) e(-n b / M) for values on n = 0, 1, ..."""
    b = np.arange(M)
    n = np.arange(len(values))
    return (np.asarray(values, dtype=complex)[None, :]
            * e(-(np.outer(b, n) % M) / M)).sum(axis=1)


def arc_sum(A, Q, khat, chi, M):
    """sum over B = 1..Q of S(A/Q, B/Q) roll(khat, b_B) chi(. - b_B / M)."""
    acc = np.zeros(M, dtype=complex)
    for B in range(1, Q + 1):
        b0 = int(round(M * B / float(Q))) % M
        w = weyl_sum(Q, A, B)
        window = np.array([chi((b - b0) / M) for b in range(M)])
        acc += w * np.roll(khat, b0) * window
    return acc


def arc_multiplier(s, J, lambda_vec, bump, lam, M):
    """One row of multipliers.build_arc_multiplier, at scale J and
    lambda_vec with the default window, densely."""
    chi = ChiCutoff(s)
    d = len(lambda_vec) + 1
    total = np.zeros(M, dtype=complex)
    for A, Q in arithmetic.arc_pairs(s, d):
        offs = []
        hit = True
        for lv, a in zip(lambda_vec, A):
            diff = (lv - a / Q) % 1.0
            diff = diff - 1.0 if diff > 0.5 else diff
            offs.append(diff)
            if abs(diff) > multipliers.arc_indicator_radius(s):
                hit = False
        if not hit:
            continue
        if not multipliers.kernel_gate(tuple(offs), J):
            continue
        ker = make_Psi(bump, lam, J, s_floor=s)
        vals = ker.at_integers()
        phases = np.zeros(len(vals))
        for k, mu in enumerate(tuple(offs), start=2):
            phases = phases + mu * np.arange(len(vals)) ** k
        khat = dft_column(vals * e(-(phases % 1.0)), M)
        total += arc_sum(A, Q, khat, chi, M)
    return total


def apply(symbol, fvals):
    """Inverse DFT of symbol * DFT(f), both by direct summation."""
    M = len(fvals)
    b = np.arange(M)
    prod = symbol * dft_column(fvals, M)
    return np.array([np.sum(prod * e((x * b % M) / M)) for x in range(M)]) / M


def variation_sup(symbol_stacks, fvals, r):
    """Pointwise max over the stacks of vr_brute across each stack's rows,
    every row applied to fvals by direct summation."""
    want = np.zeros(len(fvals))
    for symbols in symbol_stacks:
        rows = np.asarray([apply(sym, fvals) for sym in symbols])
        np.maximum(want, variation.vr_brute(list(rows.T), r), out=want)
    return want


def vrd(f, bump, lam, P_grid, k_list, r, xs):
    """multipliers.vrd_operator at the positions xs, by nested loops."""
    kernels = {k: make_Psi(bump, lam, k).at_integers() for k in k_list}
    polys = [polykit.Poly.zero()] + list(P_grid)
    want = np.zeros(len(xs))
    for xi, x in enumerate(xs):
        best = 0.0
        for p in polys:
            vals = []
            for k in k_list:
                tot = 0.0 + 0j
                for m, w in enumerate(kernels[k]):
                    j = x - m
                    if f.support_start <= j < f.support_start + len(f):
                        tot += (w * e(eval_phase(p, m))
                                * f.values[j - f.support_start])
                vals.append(tot)
            best = max(best, variation.vr_brute([np.array(vals)], r)[0])
        want[xi] = best
    return want
