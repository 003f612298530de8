"""Complete Weyl sums, the coprime arcs of each level, and decay fitting.

The normalized Weyl sum at a rational frequency tuple is

    S(A/Q, B/Q) = (1/Q) sum_{r=1..Q} e(-(A_2 r^2 + ... + A_d r^d + r B) / Q).

Phase numerators are reduced mod Q in integer arithmetic before any float
enters, so each term's phase is exact: weyl_rows sums rows of one residue
table per coefficient and gathers e(-k/Q) from one table per modulus.  For
degree 2 and odd Q with gcd(A, Q) = 1 the modulus is exactly Q^(-1/2)
(Gauss sums); the even-Q anomaly (|S| = 1 at Q = 2, A = B = 1: r^2 + r is
always even) is why decay statements carry a constant.

Enumeration distinguishes two coprimality conventions that look alike:
arcs require gcd(A_2, ..., A_d, Q) = 1, while the decay supremum runs over
gcd(A_2, ..., A_d, B, Q) = 1 with B included.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .util import DomainError, e

DECAY_QMAX = {2: 200, 3: 64}
ROW_BLOCK = 4096               # most Weyl-row entries per decay-fit batch


def weyl_row(Q: int, A) -> np.ndarray:
    """S(A/Q, B/Q) for B = 1..Q: the one-row case of weyl_rows."""
    return weyl_rows(Q, [A])[0]


def weyl_rows(Q: int, As, tables=None) -> np.ndarray:
    """S(A/Q, B/Q) for B = 1..Q and every A in As (a (k, m) int array or k
    length-m vectors), in one 2-D FFT.

    With v_c = e(-(A_2 c^2 + ... + A_d c^d)/Q) per residue c of r, S(., B/Q)
    is (1/Q) times the DFT of v at B.  v gathers the sums of rows of the
    residue tables from the phase table, both from _weyl_tables(Q, m),
    given or built here.  Row k belongs to As[k]; column i holds B = i + 1.
    """
    Q = int(Q)
    if Q < 1:
        raise DomainError("modulus Q must be positive")
    try:
        A = np.asarray(As, dtype=np.int64) % Q
    except ValueError:      # ragged
        raise DomainError("all coefficient vectors need the same length")
    if A.ndim != 2:
        raise DomainError("coefficients must be k vectors of one length m")
    residues, phases = tables or _weyl_tables(Q, A.shape[1])
    num = np.zeros((len(A), Q), dtype=np.int64)
    for table, coeff in zip(residues, A.T):
        num += table[coeff]
    rows = np.fft.fft(phases[num], axis=1) / Q
    return np.roll(rows, -1, axis=1)   # column b held frequency b, B = Q at 0


def _weyl_tables(Q, m):
    """Per modulus Q: the residue table (a c^j) mod Q, a, c = 0..Q-1, of
    each j = 2..m+1, and the phase table, which holds the bits of
    e(-(k mod Q)/Q) at k = 0..(m+1)Q-1, so that a sum of m residues indexes
    it unreduced."""
    c = np.arange(Q, dtype=np.int64)
    residues, cpow = [], c
    for _ in range(m):
        cpow = cpow * c % Q
        residues.append(c[:, None] * cpow % Q)
    return residues, np.tile(e(-c.astype(float) / Q), m + 1)


def _coprime_vectors(Q, m):
    """The rows A of _all_vectors(Q, m) with gcd(A_1, ..., A_m, Q) = 1."""
    A = _all_vectors(Q, m)
    return A[np.gcd(np.gcd.reduce(A, axis=1), Q) == 1]


def arc_pairs(s: int, d: int):
    """The (A, Q) pairs indexing major arcs at level s: gcd(A, Q) = 1.

    The level cap is multipliers.S_CAP, checked where the arcs are used.
    """
    s = int(s)
    d = int(d)
    if s < 1:
        raise DomainError("s must be at least 1")
    if d < 2:
        raise DomainError("degree must be at least 2")
    return [(tuple(A), Q) for Q in range(2 ** (s - 1), 2 ** s)
            for A in _coprime_vectors(Q, d - 1).tolist()]


@dataclass(frozen=True)
class DecayFit:
    """Per-Q maxima of |S| over joint-coprime tuples plus a power-law fit."""

    d: int
    Q: tuple
    max_abs: tuple
    argmax: tuple            # (A..., B) attaining the max for each Q
    exponent: float          # c in max|S| ~ Q^-c
    residuals: tuple
    constant: float          # max over Q of max|S| * Q^exponent


def weyl_decay_fit(d: int, Qmax: int) -> DecayFit:
    """Fit max_{(A,B,Q) joint-coprime} |S| against Q^-c, Q = 1..Qmax."""
    d = int(d)
    if d not in DECAY_QMAX:
        raise DomainError("decay fit supports degrees %s" % sorted(DECAY_QMAX))
    Qmax = int(Qmax)
    if Qmax < 2:
        raise DomainError("need Qmax >= 2 to fit a slope")
    if Qmax > DECAY_QMAX[d]:
        raise DomainError(
            "Qmax %d exceeds the degree-%d cap %d" % (Qmax, d, DECAY_QMAX[d])
        )
    Qs, maxima, argmaxima = [], [], []
    for Q in range(1, Qmax + 1):
        vectors = _all_vectors(Q, d - 1)
        tables = _weyl_tables(Q, d - 1)
        # row g: -inf where gcd(g, B, Q) > 1, g the gcd of A's entries
        g = np.arange(Q + 1)[:, None]
        masked = np.where(np.gcd(g, np.gcd(g[1:, 0], Q)) != 1, -np.inf, 0.0)
        gA = np.gcd.reduce(vectors, axis=1)
        best, best_arg = -1.0, None
        # blocks of at most ROW_BLOCK entries run as fast as one batch per Q;
        # a multi-MB batch leaves the process about 1 MB more resident
        step = max(1, ROW_BLOCK // Q)
        for k in range(0, len(vectors), step):
            rows = np.abs(weyl_rows(Q, vectors[k:k + step], tables))
            rows += masked[gA[k:k + step]]
            # row-major argmax and a strict > across blocks keep the
            # tie-break: the first A in lexicographic order, then first B
            a, b = divmod(int(np.argmax(rows)), Q)
            if rows[a, b] > best:
                best = float(rows[a, b])
                best_arg = tuple(vectors[k + a].tolist()) + (b + 1,)
        Qs.append(Q)
        maxima.append(best)
        argmaxima.append(best_arg)
    logQ = np.log(np.asarray(Qs, dtype=float))
    logS = np.log(np.asarray(maxima, dtype=float))
    slope, intercept = np.polyfit(logQ, logS, 1)
    c = -float(slope)
    resid = logS - (slope * logQ + intercept)
    const = float(np.max(np.asarray(maxima) * np.asarray(Qs, dtype=float) ** c))
    return DecayFit(d=d, Q=tuple(Qs), max_abs=tuple(maxima),
                    argmax=tuple(argmaxima), exponent=c,
                    residuals=tuple(float(x) for x in resid), constant=const)


def _all_vectors(Q, m):
    """All A in [1, Q]^m, lexicographic: a (Q^m, m) int array."""
    return np.indices((Q,) * m, dtype=np.int64).reshape(m, -1).T + 1
