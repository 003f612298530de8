"""Major-arc Fourier multipliers on Z/M and the operator estimates built
from them: the arc-maximal ratio, the sequence-space ratio, and three
variation operators.

The multiplier at level s, scale J, and coefficient point lambda_vec is

    L(beta) = sum over arcs (A, Q), gcd(A, Q) = 1, 2^(s-1) <= Q < 2^s,
              gated by ||lambda_j - A_j/Q|| <= 2^(-10 s - 10) for every j,
        sum over B = 1..Q of
              S(A/Q, B/Q) * K_hat(beta - B/Q) * chi_s(beta - B/Q),

where K is the partial-sum kernel Psi (scales floor..J) modulated by
e(-P_mu) with mu = lambda - A/Q (signed torus offsets), itself gated by
||mu_k|| <= J^A0 * 2^(-k J).  Frequencies B/Q are snapped to the nearest
grid point b/M; construction refuses when the snap offset exceeds one
sixteenth of the chi_s radius (choose M divisible by the lcm of the Q
range to keep offsets zero, e.g. 6720 for everything up to Q = 16).

Everything here works on the cyclic group Z/M, so "Fourier transform"
means the forward DFT convention stated in signalkit (numpy's fft).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import arithmetic, polykit, variation
from .bumpkit import DEFAULT_A0, Profile, make_Psi, make_chi, psi_floor_index
from .signalkit import CyclicSignal, Signal
from .util import DomainError, GridTooCoarseError, e, torus_signed, write_csv

S_CAP = 4
MIN_MODULUS = 1 << 12
SUGGESTED_MODULUS = 6720       # divisible by lcm(1..8); snaps s <= 4 arcs well

ARC_RADIUS_EXP = 10            # indicator radius 2^(-10 s - 10)


def arc_indicator_radius(s: int) -> float:
    return 2.0 ** (-ARC_RADIUS_EXP * int(s) - 10)


def kernel_gate(mu, J, a0=DEFAULT_A0) -> bool:
    """The scale gate: ||mu_k|| <= J^a0 * 2^(-k J) for every k >= 2.

    Evaluated in logs so large J cannot overflow.
    """
    J = int(J)
    for k, m in enumerate(mu, start=2):
        t = float(abs(torus_signed(m)))
        if t == 0.0:
            continue
        if math.log2(t) > a0 * math.log2(J) - k * J:
            return False
    return True


def snap_to_grid(M: int, B: int, Q: int, radius: float):
    """Nearest grid index to B/Q plus the torus offset; refuse coarse grids."""
    b0 = int(round(M * B / Q)) % M
    offset = abs(B / Q - b0 / M)
    offset = min(offset, 1.0 - offset)
    if offset > radius / 16.0:
        lcm = math.lcm(*range(max(1, Q // 2), Q + 1))
        raise GridTooCoarseError(
            "frequency %d/%d snaps %.3g off the %d-grid (limit %.3g); "
            "increase M or pick it divisible by %d"
            % (B, Q, offset, M, radius / 16.0, lcm)
        )
    return b0, offset


def _kernel_hat(bump, lam, J, s, mu, M, a0):
    """DFT on Z/M of the gated, modulated partial-sum kernel.

    Returns None when the scale gate closes.  mu entries are signed torus
    offsets; the polynomial P_mu has vanishing constant and linear parts.
    """
    if not kernel_gate(mu, J, a0):
        return None
    ker = make_Psi(bump, lam, J, s_floor=s, a0=a0)
    n0, vals = ker.at_integers()
    if len(vals) > M:
        raise DomainError(
            "kernel support %d exceeds the grid modulus %d" % (len(vals), M)
        )
    if any(m != 0.0 for m in mu):
        p = polykit.Poly.vanish2(mu)
        vals = vals * e(-polykit.phase_range(p, n0, len(vals)))
    padded = np.zeros(M, dtype=complex)
    idx = (n0 + np.arange(len(vals))) % M
    np.add.at(padded, idx, vals)
    return np.fft.fft(padded)


@dataclass
class ArcMultiplier:
    """Sampled multiplier on the M-point frequency grid plus its provenance."""

    s: int
    J: int
    lambda_vec: tuple
    M: int
    lam: float
    values: np.ndarray = field(repr=False)
    contributors: list          # (FreqPoint, grid index, snap offset)
    lambda_lipschitz: float     # output drift bound per unit lambda shift

    def apply(self, f: CyclicSignal) -> CyclicSignal:
        if f.modulus != self.M:
            raise DomainError("signal modulus %d != multiplier grid %d"
                              % (f.modulus, self.M))
        return CyclicSignal(np.fft.ifft(np.fft.fft(f.values) * self.values))

    def sup_abs(self) -> float:
        return float(np.max(np.abs(self.values)))

    def to_csv(self, path):
        freqs = np.arange(self.M) / self.M
        rows = [(f, v.real, v.imag) for f, v in zip(freqs, self.values)]
        write_csv(path, ("frequency", "re", "im"), rows)


def build_arc_multiplier(s: int, J: int, lambda_vec, bump: Profile,
                         lam: float, M: int, a0=DEFAULT_A0,
                         chi_a0=None, strict_modulus=True) -> ArcMultiplier:
    """Assemble the level-s multiplier at scale J and coefficient lambda_vec.

    a0 governs the kernel scale floor and gate; chi_a0 (defaulting to a0)
    governs only the chi_s window width, so narrow-window probes can keep
    the kernel floor intact.  strict_modulus=False lifts the MIN_MODULUS
    floor for small cross-check instances; snapping and kernel-support
    errors still apply.
    """
    s = int(s)
    if not (1 <= s <= S_CAP):
        raise DomainError("level s must lie in 1..%d" % S_CAP)
    M = int(M)
    if strict_modulus and M < MIN_MODULUS:
        raise DomainError("grid modulus must be at least %d" % MIN_MODULUS)
    J = int(J)
    j0 = psi_floor_index(s, a0)
    if J < j0:
        raise DomainError("scale J=%d is below the level floor j0=%d" % (J, j0))
    lambda_vec = tuple(float(x) for x in lambda_vec)
    d = len(lambda_vec) + 1
    chi = make_chi(s, a0=a0 if chi_a0 is None else chi_a0)
    ball = arc_indicator_radius(s)
    total = np.zeros(M, dtype=complex)
    contributors = []
    kernel_cache = {}
    kernel_l1 = 0.0
    for A, Q in arithmetic.arc_pairs(s, d):
        offs = tuple(float(torus_signed(lv - a / Q)) for lv, a in zip(lambda_vec, A))
        if any(abs(o) > ball for o in offs):
            continue
        khat = kernel_cache.get(offs)
        if khat is None:
            khat = _kernel_hat(bump, lam, J, s, offs, M, a0)
            kernel_cache[offs] = khat if khat is not None else False
        if khat is False or khat is None:
            continue
        srow = arithmetic.weyl_row(Q, A)
        for B in range(1, Q + 1):
            b0, off = snap_to_grid(M, B, Q, chi.radius)
            total += srow[B - 1] * np.roll(khat, b0) * chi.window(M, b0)
            contributors.append((arithmetic.FreqPoint(Q=Q, A=A, B=B), b0, off))
    if contributors:
        ker = make_Psi(bump, lam, J, s_floor=s, a0=a0)
        _n0, vals = ker.at_integers()
        kernel_l1 = float(np.sum(np.abs(vals)))
        length = lam ** (J + 1)
        drift = 2.0 * math.pi * kernel_l1 * sum(length ** k for k in range(2, d + 1))
    else:
        drift = 0.0
    return ArcMultiplier(s=s, J=J, lambda_vec=lambda_vec, M=M, lam=lam,
                         values=total, contributors=contributors,
                         lambda_lipschitz=drift)


def lambda_grid_for(s: int, d: int, a0=DEFAULT_A0):
    """The canonical discretization of the lambda supremum.

    Each arc ball of radius 2^(-10 s - 10) around A/Q carries 3^(d-1)
    points: the center and +-(radius/2) per coordinate.
    """
    half = arc_indicator_radius(s) / 2.0
    pts = []
    for A, Q in arithmetic.arc_pairs(int(s), int(d)):
        center = [a / Q for a in A]
        choices = [(c - half, c, c + half) for c in center]
        stack = [[]]
        for trio in choices:
            stack = [p + [x] for p in stack for x in trio]
        pts.extend(tuple(np.mod(p, 1.0)) for p in stack)
    return pts


def _arc_projections(s, fhat, M, chi, weight_rows, d):
    """Per-arc filtered signals g_{A,Q}(x); weight_rows may add m_mu factors.

    weight_rows: None for plain chi projection, else an iterable of
    (label, frequency-domain weight array centered like the kernel hats).
    Yields (A, Q, g) with g the inverse DFT, for each weight in turn.
    """
    for A, Q in arithmetic.arc_pairs(s, d):
        srow = arithmetic.weyl_row(Q, A)
        acc_base = np.zeros(M, dtype=complex)
        if weight_rows is None:
            for B in range(1, Q + 1):
                b0, _off = snap_to_grid(M, B, Q, chi.radius)
                acc_base += srow[B - 1] * chi.window(M, b0) * fhat
            yield A, Q, np.fft.ifft(acc_base)
        else:
            for wlab, what in weight_rows:
                acc = np.zeros(M, dtype=complex)
                for B in range(1, Q + 1):
                    b0, _off = snap_to_grid(M, B, Q, chi.radius)
                    acc += (srow[B - 1] * np.roll(what, b0)
                            * chi.window(M, b0) * fhat)
                yield A, Q, np.fft.ifft(acc)


def maximal_arc_ratio(s: int, f: CyclicSignal, mod_kernel=None,
                      a0=DEFAULT_A0, chi_a0=None, d=2) -> float:
    """l2 ratio of the arc-maximal function against f.

    For each arc (A, Q) the signal is filtered by sum_B S(A/Q, B/Q) times
    the chi_s window at B/Q (times the modulated-kernel symbol m_mu when
    mod_kernel = (weights Signal, list of mu vectors) is given); the sup of
    |g| over arcs (and mu) is measured in l2 and normalized by ||f||_2.
    """
    s = int(s)
    if not (1 <= s <= S_CAP):
        raise DomainError("level s must lie in 1..%d" % S_CAP)
    M = f.modulus
    norm = f.l2()
    if norm == 0.0:
        return 0.0
    chi = make_chi(s, a0=a0 if chi_a0 is None else chi_a0)
    fhat = np.fft.fft(f.values)
    weight_rows = None
    if mod_kernel is not None:
        w, mu_grid = mod_kernel
        if not isinstance(w, Signal):
            raise DomainError("mod_kernel weights must be a Signal")
        l1 = float(np.sum(np.abs(w.values)))
        if l1 > 1.0 + 1e-9:
            raise DomainError("modulated kernel must have l1 norm <= 1")
        weight_rows = []
        idx = (w.support_start + np.arange(len(w))) % M
        for mu in mu_grid:
            p = polykit.Poly.vanish2(tuple(mu))
            vals = w.values * e(polykit.phase_range(p, w.support_start, len(w)))
            padded = np.zeros(M, dtype=complex)
            np.add.at(padded, idx, vals)
            weight_rows.append((tuple(mu), np.fft.fft(padded)))
    best = np.zeros(M)
    for _A, _Q, g in _arc_projections(s, fhat, M, chi, weight_rows, d):
        np.maximum(best, np.abs(g), out=best)
    return float(np.linalg.norm(best) / norm)


def seqspace_freqs(s: int):
    """Canonical sorted list of reduced frequencies B/Q for the level-s range."""
    from fractions import Fraction

    s = int(s)
    out = set()
    for Q in range(2 ** (s - 1), 2 ** s):
        for B in range(1, Q + 1):
            out.add(Fraction(B % Q, Q))
    return tuple(sorted(out))


def seqspace_ratio(c, s: int, I, a0=DEFAULT_A0, chi_a0=None, d=2) -> float:
    """Ratio for the coefficient-to-function map x -> sum_B c_{B/Q} S e(Bx/Q).

    c is aligned with seqspace_freqs(s); I is an integer interval (start,
    length) with length >= 1/(2 radius(chi_s)).  No grid snapping: the
    frequencies B/Q are used exactly.  Normalization |I|^(1/2) ||c||_2.
    """
    s = int(s)
    if not (1 <= s <= S_CAP):
        raise DomainError("level s must lie in 1..%d" % S_CAP)
    freqs = seqspace_freqs(s)
    c = np.asarray(c, dtype=complex)
    if c.shape != (len(freqs),):
        raise DomainError(
            "coefficient vector must align with the %d level-%d frequencies"
            % (len(freqs), s)
        )
    cnorm = float(np.linalg.norm(c))
    if cnorm == 0.0:
        return 0.0
    start, length = int(I[0]), int(I[1])
    chi = make_chi(s, a0=a0 if chi_a0 is None else chi_a0)
    need = math.ceil(1.0 / (2.0 * chi.radius))
    if length < need:
        raise DomainError(
            "interval length %d below the level-%d floor %d" % (length, s, need)
        )
    lookup = {fr: i for i, fr in enumerate(freqs)}
    x = np.arange(start, start + length, dtype=np.int64)
    best = np.zeros(length)
    from fractions import Fraction

    for A, Q in arithmetic.arc_pairs(s, d):
        srow = arithmetic.weyl_row(Q, A)
        F = np.zeros(length, dtype=complex)
        for B in range(1, Q + 1):
            coeff = c[lookup[Fraction(B % Q, Q)]] * srow[B - 1]
            if coeff == 0.0:
                continue
            F += coeff * e(((B % Q) * x % Q) / Q)
        np.maximum(best, np.abs(F), out=best)
    return float(np.linalg.norm(best) / (math.sqrt(length) * cnorm))


def _multiplier_sequence(s, f, J_list, lambda_vec, bump, lam, a0, chi_a0=None,
                         strict_modulus=True):
    """Stack of filtered signals, one row per J, for a fixed lambda_vec."""
    M = f.modulus
    rows = np.zeros((len(J_list), M), dtype=complex)
    fhat = np.fft.fft(f.values)
    for i, J in enumerate(J_list):
        mult = build_arc_multiplier(s, J, lambda_vec, bump, lam, M, a0=a0,
                                    chi_a0=chi_a0, strict_modulus=strict_modulus)
        rows[i] = np.fft.ifft(mult.values * fhat)
    return rows


def vr_s_operator(s: int, f: CyclicSignal, J_list, r, bump: Profile,
                  lam=1.5, a0=DEFAULT_A0, chi_a0=None, d=2) -> CyclicSignal:
    """Pointwise r-variation over the J-indexed arc projections, sup over arcs.

    The kernel here is the unmodulated partial sum Psi (lambda sits exactly
    on A/Q, so mu = 0).
    """
    s = int(s)
    J_list = [int(J) for J in J_list]
    if sorted(J_list) != J_list or len(set(J_list)) != len(J_list):
        raise DomainError("J_list must be strictly increasing")
    j0 = psi_floor_index(s, a0)
    if J_list and J_list[0] < j0:
        raise DomainError("scales below the level floor %d" % j0)
    M = f.modulus
    chi = make_chi(s, a0=a0 if chi_a0 is None else chi_a0)
    fhat = np.fft.fft(f.values)
    khats = {}
    for J in J_list:
        khats[J] = _kernel_hat(bump, lam, J, s, (0.0,) * (d - 1), M, a0)
    best = np.zeros(M)
    for A, Q in arithmetic.arc_pairs(s, d):
        srow = arithmetic.weyl_row(Q, A)
        rows = np.zeros((len(J_list), M), dtype=complex)
        for i, J in enumerate(J_list):
            if khats[J] is None:
                continue
            acc = np.zeros(M, dtype=complex)
            for B in range(1, Q + 1):
                b0, _off = snap_to_grid(M, B, Q, chi.radius)
                acc += srow[B - 1] * np.roll(khats[J], b0) * chi.window(M, b0)
            rows[i] = np.fft.ifft(acc * fhat)
        if len(J_list) >= 2:
            np.maximum(best, variation.vr_batch(rows, r), out=best)
    return CyclicSignal(best)


def vr_sd_operator(s: int, f: CyclicSignal, J_list, lambda_grid, r,
                   bump: Profile, lam=1.5, a0=DEFAULT_A0,
                   chi_a0=None, strict_modulus=True) -> CyclicSignal:
    """sup over lambda in the grid of the r-variation across J of L * f."""
    s = int(s)
    J_list = [int(J) for J in J_list]
    if sorted(J_list) != J_list or len(set(J_list)) != len(J_list):
        raise DomainError("J_list must be strictly increasing")
    M = f.modulus
    best = np.zeros(M)
    if not lambda_grid:
        return CyclicSignal(best)
    for lv in lambda_grid:
        rows = _multiplier_sequence(s, f, J_list, tuple(lv), bump, lam, a0,
                                    chi_a0=chi_a0,
                                    strict_modulus=strict_modulus)
        if len(J_list) >= 2:
            np.maximum(best, variation.vr_batch(rows, r), out=best)
    return CyclicSignal(best)


def vrd_operator(f: Signal, bump: Profile, lam, P_grid, k_list, r) -> Signal:
    """Time-domain variation operator over modulated partial-sum kernels.

    Per x: sup over P (the zero polynomial always included) of the exact
    r-variation of the sequence k -> sum_n Psi_k(n) e(P(n)) f(x - n).
    """
    k_list = [int(k) for k in k_list]
    if sorted(k_list) != k_list or len(set(k_list)) != len(k_list):
        raise DomainError("k_list must be strictly increasing")
    if not k_list:
        raise DomainError("need at least one scale")
    polys = [polykit.Poly.zero()]
    for p in P_grid:
        if p.degree > 0 or any(c != 0.0 for c in p.coeffs):
            polys.append(p)
    kernels = {k: make_Psi(bump, lam, k).at_integers() for k in k_list}
    # common output support: full convolution against the longest kernel
    n0_max, vals_max = kernels[k_list[-1]]
    out_start = f.support_start + n0_max
    out_len = len(f) + len(vals_max) - 1
    best = np.zeros(out_len)
    for p in polys:
        rows = np.zeros((len(k_list), out_len), dtype=complex)
        for i, k in enumerate(k_list):
            n0, vals = kernels[k]
            mod = vals * e(polykit.phase_range(p, n0, len(vals)))
            conv = np.convolve(f.values, mod)
            lead = (f.support_start + n0) - out_start
            rows[i, lead: lead + len(conv)] = conv
        if len(k_list) >= 2:
            np.maximum(best, variation.vr_batch(rows, r), out=best)
    return Signal(out_start, best)


def ratio_table_csv(path, rows):
    """Shared CSV layout for operator norm-ratio sweeps."""
    write_csv(path, ("s", "r", "M", "batch_size", "mean_ratio",
                     "max_ratio", "std_err"), rows)
