"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive: direct summation, exhaustive search,
exact rational arithmetic.  Slow but obviously correct on small instances.
Nothing in this file imports from modvar.
"""
import cmath
import itertools
import math
from fractions import Fraction

import numpy as np


def dft_dense(values):
    """O(M^2) DFT by explicit outer product, no FFT."""
    v = np.asarray(values, dtype=complex)
    M = len(v)
    n = np.arange(M)
    W = np.exp(-2j * np.pi * np.outer(n, n) / M)
    return W @ v


def convolve_loops(f, k):
    """Double-loop linear convolution of two dense coefficient arrays."""
    out = np.zeros(len(f) + len(k) - 1, dtype=complex)
    for i, a in enumerate(f):
        for j, b in enumerate(k):
            out[i + j] += a * b
    return out


def vr_dfs(seq, r):
    """r-variation by exhaustive search over increasing index subsequences."""
    seq = [complex(x) for x in seq]
    n = len(seq)
    best = 0.0
    for size in range(2, n + 1):
        for idx in itertools.combinations(range(n), size):
            tot = sum(abs(seq[j] - seq[i]) ** r
                      for i, j in zip(idx, idx[1:]))
            best = max(best, tot)
    return best ** (1.0 / r) if best > 0 else 0.0


def theta_sup_variation_sums(f, weights, theta_count, r, js=None):
    """sup over theta = j/theta_count, j in js (default: every j), of the
    r-variation over the truncations M of A_M^theta f(x) = sum_{n=0..M}
    phi_M(n) e(-n theta) f((x - n) mod L), each term summed directly and
    each variation found by vr_dfs.  weights holds phi_M at n = 0..M per
    truncation, in order, so this file stays free of modvar."""
    f = np.asarray(f, dtype=complex)
    L = len(f)
    x = np.arange(L)
    best = np.zeros(L)
    for j in range(theta_count) if js is None else js:
        sums = np.zeros((len(weights), L), dtype=complex)
        for k, w in enumerate(weights):
            for n, wn in enumerate(w):
                char = cmath.exp(-2j * cmath.pi * ((n * j) % theta_count)
                                 / theta_count)
                sums[k] += wn * char * f[(x - n) % L]
        for i in range(L):
            best[i] = max(best[i], vr_dfs(sums[:, i], r))
    return best


def jumps_dfs(seq, tau):
    """Number of jumps in the longest chain with every gap >= tau."""
    seq = [complex(x) for x in seq]
    n = len(seq)
    best = 0
    for size in range(2, n + 1):
        for idx in itertools.combinations(range(n), size):
            if all(abs(seq[j] - seq[i]) >= tau
                   for i, j in zip(idx, idx[1:])):
                best = max(best, size - 1)
    return best


def vec_jumps_dfs(vecs, lam):
    """Vector-valued chain count: consecutive l2 gaps >= lam, exhaustive."""
    a = np.asarray(vecs, dtype=float)
    n = len(a)
    best = 0
    for size in range(2, n + 1):
        for idx in itertools.combinations(range(n), size):
            if all(np.linalg.norm(a[j] - a[i]) >= lam
                   for i, j in zip(idx, idx[1:])):
                best = max(best, size - 1)
    return best


def chaining_cover_loops(values, resolution):
    """Greedy time-order 2^-v nets with first-fit parents, by plain loops.

    values: rows of complex coordinates.  Returns (levels, parent, v_min,
    v_max, diameter): levels maps v to the tuple of center indices, each
    index joining when it lies farther than 2^-v from every earlier center;
    parent maps (v, i) to the first center of level v-1 within 3 * 2^-v.
    """
    pts = [[complex(x) for x in row] for row in values]
    n = len(pts)

    def dist(i, j):
        return math.sqrt(sum(abs(a - b) ** 2 for a, b in zip(pts[i], pts[j])))

    diam = max((dist(i, j) for i in range(n) for j in range(i + 1, n)),
               default=0.0)
    if diam == 0.0:
        return {0: (0,)}, {}, 0, 0, 0.0
    v_min = math.floor(-math.log2(diam))
    v_max = max(v_min, math.floor(-math.log2(resolution * diam)))
    levels = {}
    for v in range(v_min, v_max + 1):
        centers = []
        for i in range(n):
            if all(dist(i, c) > 2.0 ** -v for c in centers):
                centers.append(i)
        levels[v] = tuple(centers)
    parent = {}
    for v in range(v_min + 1, v_max + 1):
        for i in levels[v]:
            for c in levels[v - 1]:
                if dist(i, c) <= 3.0 * 2.0 ** -v:
                    parent[(v, i)] = c
                    break
    return levels, parent, v_min, v_max, diam


def weyl_direct(Q, A, B, d):
    """Complete normalized exponential sum by direct length-Q summation.

    Phase of each term is reduced mod 1 in exact rational arithmetic before
    any float rounding.
    """
    if len(A) != d - 1:
        raise ValueError("need d-1 leading coefficients")
    total = 0j
    for n in range(1, Q + 1):
        ph = Fraction(B * n, Q)
        for k, a in enumerate(A, start=2):
            ph += Fraction(a * n ** k, Q)
        frac = ph - (ph.numerator // ph.denominator)
        total += cmath.exp(-2j * cmath.pi * float(frac))
    return total / Q


def weyl_decay_loops(d, Qmax, weyl_row):
    """The fields of a decay fit by a row-by-row loop.

    For each Q = 1..Qmax it takes |weyl_row(Q, A)| for every A in [1, Q]^(d-1)
    in lexicographic order, keeps B only where math.gcd(*A, B, Q) == 1 and
    the first strict maximum, then fits log max|S| against log Q by least
    squares.  weyl_row is passed in, so this file stays free of modvar.
    """
    Qs = tuple(range(1, Qmax + 1))
    maxima, argmax = [], []
    for Q in Qs:
        best, best_arg = -1.0, None
        for A in itertools.product(range(1, Q + 1), repeat=d - 1):
            row = np.abs(weyl_row(Q, A))
            for B in range(1, Q + 1):
                if math.gcd(*A, B, Q) == 1 and row[B - 1] > best:
                    best, best_arg = float(row[B - 1]), A + (B,)
        maxima.append(best)
        argmax.append(best_arg)
    logQ = np.log(np.array(Qs, dtype=float))
    logS = np.log(np.array(maxima))
    slope, intercept = np.polyfit(logQ, logS, 1)
    c = -float(slope)
    resid = logS - (slope * logQ + intercept)
    const = np.max(np.array(maxima) * np.array(Qs, dtype=float) ** c)
    return {"d": d, "Q": Qs, "max_abs": tuple(maxima),
            "argmax": tuple(argmax), "exponent": c,
            "residuals": tuple(float(x) for x in resid),
            "constant": float(const)}


def _squarefree_divisors(Q):
    primes = []
    q = Q
    p = 2
    while p * p <= q:
        if q % p == 0:
            primes.append(p)
            while q % p == 0:
                q //= p
        p += 1
    if q > 1:
        primes.append(q)
    for size in range(len(primes) + 1):
        for combo in itertools.combinations(primes, size):
            yield math.prod(combo), (-1) ** size


def coprime_vector_count(Q, m):
    """Number of A in [1,Q]^m with gcd(A_1..A_m, Q) = 1, by inclusion-exclusion."""
    if Q == 1:
        return 1
    return sum(sign * (Q // g) ** m for g, sign in _squarefree_divisors(Q))


def phase_fraction(coeffs, n):
    """Polynomial phase mod 1 with every float coefficient taken exactly.

    A float is a dyadic rational, so Fraction(c) is lossless and the mod-1
    reduction happens before any rounding.
    """
    ph = Fraction(0)
    for k, c in enumerate(coeffs):
        ph += Fraction(c) * n ** k
    frac = ph - (ph.numerator // ph.denominator)
    return float(frac)


def shift_orbit_point(omega, n):
    """n-th point of the orbit of omega under the shift n -> n + 1 on Z."""
    return int(omega) + int(n)


def _fixed(x, scale):
    """x mod 1 as a multiple of 1/scale: exact for a float with at most
    log2(scale) fraction bits, else rounded half to even."""
    return round(Fraction(x) * scale) % scale


def rotation_orbit_point(alpha_scaled, scale, omega, n):
    """omega + n alpha mod 1, alpha = alpha_scaled / scale, in exact integer
    arithmetic up to the final correctly rounded float."""
    return float(Fraction((_fixed(omega, scale) + n * alpha_scaled) % scale,
                          scale))


def skew_orbit_point(alpha_scaled, scale, omega, n):
    """(x + n a, y + 2 n x + n^2 a) mod 1 for omega = (x, y), a =
    alpha_scaled / scale, exact up to the two final floats."""
    x, y = (_fixed(c, scale) for c in omega)
    a = alpha_scaled
    return (float(Fraction((x + n * a) % scale, scale)),
            float(Fraction((y + 2 * n * x + n * n * a) % scale, scale)))


def skew_orbit_steps(alpha_scaled, scale, omega, n):
    """Skew product orbit by n single steps (x,y) -> (x+a, y+2x+a), exact."""
    a = Fraction(alpha_scaled, scale)
    x = Fraction(omega[0]) % 1
    y = Fraction(omega[1]) % 1
    for _ in range(n):
        x, y = (x + a) % 1, (y + 2 * x + a) % 1
    return float(x), float(y)
