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

The inner sum over B is the arc symbol, and arc_symbol is its only
implementation: it adds each term on the nonzeros of its chi_s window
alone.  No symbol depends on the signal, so every operator is a builder,
run once per level, and an apply per draw: arc_symbols with
maximal_arc_ratio, and for each variation operator (vr-s, vr-sd, carleson's
theta sup and vrd_operator) a stack builder with vr_sup.
kernel_transforms, the one transform of kernels on Z (from n = 0) into rows
on Z/M, serves _kernel_hat, harness.theta_symbols and vrd_operator.  The
arc builders snap and window each B/Q once, in one table per Q (_windows),
and store SupportStacks on its support: arc_symbols one per Q,
build_arc_multiplier one per lambda on that of the one arc whose ball holds
it, if any.  The variation reads only row differences, so its stacks are
anchored (rows 1.. minus row 0); vr_sup also reads a ShiftedStack, a dense
stack at a cyclic column offset (the theta grid reads one set of truncation
transforms at many, vrd_operator each stack at 0), so no stack is copied or
rolled.  _filtered is the one apply: each stack's rows times the signal's
transform, in rows 1.. of one buffer whose row 0 stays zero, inverted in
place.  The vr-sd stacks are build_arc_multiplier's on lambda_grid_for; its
points 3k+1 are the arc centres A/Q, where every offset vanishes, and the
vr-s table is the sup over their stacks alone.
The sequence-space ratio follows the same pattern off the grid:
seqspace_level builds the Weyl rows and the characters e(Bx/Q) once per
level, and seqspace_ratio applies them to each coefficient draw.

Everything here works on the cyclic group Z/M, so "Fourier transform"
means the forward DFT convention stated in signalkit (numpy's fft).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import arithmetic, polykit, variation
from .bumpkit import DEFAULT_A0, ChiCutoff, SmoothBump, make_Psi, \
    psi_floor_index
from .signalkit import Signal, l2
from .util import DomainError, GridTooCoarseError, e, torus_signed

S_CAP = 4
MIN_MODULUS = 1 << 12
SUGGESTED_MODULUS = 6720       # divisible by lcm(1..8); snaps s <= 4 arcs well

ARC_RADIUS_EXP = 10            # indicator radius 2^(-10 s - 10)


def arc_indicator_radius(s: int) -> float:
    return 2.0 ** (-ARC_RADIUS_EXP * int(s) - 10)


def _level_chi(s, chi_a0):
    """The level-s window, its width set by chi_a0; the one check that
    1 <= s <= S_CAP."""
    s = int(s)
    if not (1 <= s <= S_CAP):
        raise DomainError("level s must lie in 1..%d" % S_CAP)
    return ChiCutoff(s, a0=chi_a0)


def _scales(J_list):
    """The one check of a scale list: nonempty, strictly increasing."""
    J_list = [int(J) for J in J_list]
    if not J_list:
        raise DomainError("need at least one scale")
    if sorted(J_list) != J_list or len(set(J_list)) != len(J_list):
        raise DomainError("scales must be strictly increasing")
    return J_list


def kernel_gate(mu, J) -> bool:
    """The scale gate: ||mu_k|| <= J^A0 * 2^(-k J) for every k >= 2, with
    A0 = DEFAULT_A0.

    Evaluated in logs so large J cannot overflow.
    """
    J = int(J)
    for k, m in enumerate(mu, start=2):
        t = float(abs(torus_signed(m)))
        if t == 0.0:
            continue
        if math.log2(t) > DEFAULT_A0 * math.log2(J) - k * J:
            return False
    return True


def snap_to_grid(M: int, B: int, Q: int, radius: float) -> int:
    """Nearest index to B/Q on Z/M; refuses M < 1, offsets above radius/16."""
    if M < 1:
        raise DomainError("grid modulus %d is below 1" % M)
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
    return b0


def kernel_transforms(kernels, M, anchored=False) -> np.ndarray:
    """The DFTs on Z/M of kernels on Z (each the array of its values at
    n = 0, 1, ...), as the rows of a read-only (K, M) array: each is
    zero-padded to M and transformed in place; anchored=True anchors them
    (see vr_sup).  Refuses a kernel longer than M, which Z/M would fold
    onto itself, and an empty list."""
    if not len(kernels):
        raise DomainError("need at least one kernel")
    out = np.zeros((len(kernels), M), dtype=complex)
    for row, vals in zip(out, kernels):
        if len(vals) > M:
            raise DomainError("kernel support %d exceeds the grid modulus %d"
                              % (len(vals), M))
        row[:len(vals)] += vals
        np.fft.fft(row, out=row)
    if anchored:
        out[1:] -= out[0]
        out = out[1:]
    out.flags.writeable = False
    return out


def _kernel_hat(bump, lam, J, s, mu, M):
    """DFT on Z/M of the gated, modulated partial-sum kernel.

    Returns None when the scale gate closes.  mu entries are signed torus
    offsets; the polynomial P_mu has vanishing constant and linear parts.
    """
    if not kernel_gate(mu, J):
        return None
    vals = make_Psi(bump, lam, J, s_floor=s).at_integers()
    if any(m != 0.0 for m in mu):
        p = polykit.Poly.vanish2(mu)
        vals = vals * e(-polykit.phase_range(p, 0, len(vals)))
    return kernel_transforms([vals], M)[0]


def _windows(M, Q, chi):
    """Each B/Q, B = 1..Q, snapped and windowed once: the sorted union of the
    window nonzeros, and per B their positions in it, offsets and values."""
    snaps = [snap_to_grid(M, B, Q, chi.radius) for B in range(1, Q + 1)]
    windows = [chi.window(M, b0) for b0 in snaps]
    mask = np.zeros(M, dtype=bool)      # not np.unique, which imports numpy.ma
    mask[np.concatenate([idx for idx, _vals in windows])] = True
    support = np.flatnonzero(mask)
    return support, [(np.searchsorted(support, idx), idx - b0, vals)
                     for b0, (idx, vals) in zip(snaps, windows)]


def arc_symbol(A, Q, windows, khat=None) -> np.ndarray:
    """sum over B = 1..Q of S(A/Q, B/Q) * K_hat(. - b_B) * chi(. - b_B) on
    the support of windows = _windows(M, Q, chi), b_B the grid index of B/Q.

    Each term is added on its window's nonzeros only; off them it is zero,
    so the values equal those of the full-grid sum bit for bit.
    khat=None stands for K_hat = 1: the plain window symbol of the arc.
    """
    support, terms = windows
    srow = arithmetic.weyl_row(Q, A)
    acc = np.zeros(len(support), dtype=complex)
    for S, (pos, offsets, vals) in zip(srow, terms):
        w = S if khat is None else S * khat[offsets]
        acc[pos] += w * vals
    return acc


class SupportStack(NamedTuple):
    """Rows on Z/modulus stored on their support: the sorted indices off
    which every row vanishes, and the (rows, len(support)) values there,
    anchored (see vr_sup) for build_arc_multiplier, not for arc_symbols."""

    modulus: int
    support: np.ndarray
    values: np.ndarray


class ShiftedStack(NamedTuple):
    """An anchored dense stack read at a cyclic column offset: its column k
    is values[:, (k + shift) % modulus], the columns of np.roll(values,
    -shift, axis=1) without the copy."""

    values: np.ndarray
    shift: int


def build_arc_multiplier(s: int, J_list, lambda_grid, M: int,
                         bump: SmoothBump, lam=1.5, chi_a0=DEFAULT_A0):
    """Per lambda_vec in lambda_grid, the SupportStack of the level-s
    multiplier at the scales J_list on Z/M.

    A stack's support is the chi_s window nonzeros of the arc in
    lambda_vec's ball (empty if none: distinct level-s arcs lie 4^-s apart
    or more, so no ball meets another), and its symbol is summed there
    alone, so scattered into zeros a stack is the anchored dense array bit
    for bit.  The level's window, its checks, each lambda_vec's arc, each
    Q's window table and one kernel transform per (J, offsets) are made once.
    The kernel scale floor and gate use DEFAULT_A0; chi_a0 governs only the
    chi_s window width, so narrow-window probes keep the kernel floor
    intact.  Any M >= 1 is accepted here (the vr-sd sweep refuses M below
    MIN_MODULUS as a config range), within the snap and kernel limits.
    """
    chi = _level_chi(s, chi_a0)
    M = int(M)
    if M < 1:
        raise DomainError("grid modulus %d is below 1" % M)
    J_list = _scales(J_list)
    j0 = psi_floor_index(chi.s)
    if J_list[0] < j0:
        raise DomainError("scale J=%d is below the level floor j0=%d"
                          % (J_list[0], j0))
    ball = arc_indicator_radius(chi.s)
    hits = []           # per lambda_vec: (A, Q, offsets) of its arc, or None
    for lambda_vec in lambda_grid:
        lambda_vec = tuple(float(x) for x in lambda_vec)
        hits.append(None)
        for A, Q in arithmetic.arc_pairs(chi.s, len(lambda_vec) + 1):
            offs = tuple(float(torus_signed(lv - a / Q))
                         for lv, a in zip(lambda_vec, A))
            if all(abs(o) <= ball for o in offs):
                hits[-1] = (A, Q, offs)
                break
    tables = {Q: _windows(M, Q, chi) for Q in {hit[1] for hit in hits if hit}}
    khats = {offs: [_kernel_hat(bump, lam, J, chi.s, offs, M) for J in J_list]
             for offs in {hit[2] for hit in hits if hit}}
    stacks = []
    for hit in hits:
        support = tables[hit[1]][0] if hit else np.zeros(0, dtype=np.intp)
        rows = np.zeros((len(J_list), len(support)), dtype=complex)
        if hit:
            A, Q, offs = hit
            for row, khat in zip(rows, khats[offs]):
                if khat is not None:
                    row += arc_symbol(A, Q, tables[Q], khat)
        stacks.append(SupportStack(M, support, rows[1:] - rows[0]))
    return stacks


def lambda_grid_for(s: int, d: int):
    """The canonical discretization of the lambda supremum.

    Each arc ball of radius 2^(-10 s - 10) around A/Q carries 3^(d-1)
    points: the center and +-(radius/2) per coordinate.
    """
    half = arc_indicator_radius(s) / 2.0
    pts = []
    for A, Q in arithmetic.arc_pairs(int(s), int(d)):
        choices = [(a / Q - half, a / Q, a / Q + half) for a in A]
        pts.extend(tuple(np.mod(p, 1.0)) for p in itertools.product(*choices))
    return pts


def _check_grid(M, f):
    """The one check of a signal f on Z/M: a nonempty 1-d array of M values."""
    if M < 1 or np.shape(f) != (M,):
        raise DomainError("signal of shape %s is not on the symbol grid %d"
                          % (np.shape(f), M))


def arc_symbols(s: int, M: int, chi_a0=DEFAULT_A0):
    """The level-s window symbols for maximal_arc_ratio: one SupportStack
    per denominator Q, on the union of the windows of every B/Q, whose rows
    are the symbols of Q's arcs in arc_pairs order."""
    chi = _level_chi(s, chi_a0)
    M = int(M)
    stacks = []
    for Q, arcs in itertools.groupby(arithmetic.arc_pairs(chi.s, 2),
                                     key=lambda arc: arc[1]):
        windows = _windows(M, Q, chi)
        stacks.append(SupportStack(M, windows[0], np.array(
            [arc_symbol(A, Q, windows) for A, _Q in arcs])))
    return stacks


def _filtered(stacks, f):
    """Per stack of n rows, its rows times the transform of the signal f on
    Z/M, inverted in place in rows 1.. of one buffer whose row 0 stays zero,
    yielded as a view of n + 1 rows.  The stacks are listed first, so the
    buffer, of 1 + most rows, is allocated once per call; a signal with a
    nan or inf value is refused once, before any stack."""
    _check_grid(np.size(f), f)      # a nonempty 1-d array, stacks or none
    if not np.isfinite(f).all():
        raise DomainError("non-finite signal values: no filtered rows")
    fhat, M, stacks = np.fft.fft(f), len(f), list(stacks)
    buf = np.zeros((1 + max((len(st.values) for st in stacks), default=0), M),
                   dtype=complex)
    for stack in stacks:
        shifted = isinstance(stack, ShiftedStack)
        _check_grid(stack.values.shape[-1] if shifted else stack.modulus, f)
        n = len(stack.values)
        rows = buf[1:n + 1]
        if shifted:
            m = stack.shift % M
            np.multiply(stack.values[:, m:], fhat[:M - m], out=rows[:, :M - m])
            np.multiply(stack.values[:, :m], fhat[M - m:], out=rows[:, M - m:])
        else:
            rows.fill(0.0)
            rows[:, stack.support] = stack.values * fhat[stack.support]
        np.fft.ifft(rows, axis=1, out=rows)
        yield buf[:n + 1]


def maximal_arc_ratio(symbols, f) -> float:
    """l2 ratio of the arc-maximal function against the signal f on Z/M:
    the sup of |g| over the rows of the stacks from arc_symbols, each row
    filtering f, in l2 over ||f||_2; one stack at a time in _filtered's one
    buffer."""
    best = np.zeros(np.size(f))
    for spec in _filtered(symbols, f):
        np.maximum(best, np.abs(spec[1:]).max(axis=0), out=best)
    norm = l2(f)
    return l2(best) / norm if norm else 0.0


def seqspace_freqs(s: int):
    """Canonical sorted list of reduced frequencies B/Q for the level-s range."""
    s = int(s)
    out = set()
    for Q in range(2 ** (s - 1), 2 ** s):
        for B in range(1, Q + 1):
            out.add(Fraction(B % Q, Q))
    return tuple(sorted(out))


def _interval_floor(radius):
    """A level's least sequence-space interval: 1/(2 radius), rounded up."""
    return math.ceil(1.0 / (2.0 * radius))


def seqspace_level(s: int, length: int, chi_a0=DEFAULT_A0):
    """The level-s data of the sequence-space map on x = 0..length-1.

    Returns (frequency count, length, arcs); each arc, in arc_pairs order,
    holds its Weyl row S(A/Q, B/Q), the index of each B/Q in
    seqspace_freqs(s), and the characters e(Bx/Q), B = 1..Q.  length must
    be at least 1/(2 radius(chi_s)).  No grid snapping: the frequencies B/Q
    are used exactly.
    """
    chi = _level_chi(s, chi_a0)
    s, length = chi.s, int(length)
    need = _interval_floor(chi.radius)
    if length < need:
        raise DomainError(
            "interval length %d below the level-%d floor %d" % (length, s, need)
        )
    lookup = {fr: i for i, fr in enumerate(seqspace_freqs(s))}
    x = np.arange(length, dtype=np.int64)
    chars = {Q: [e(((B % Q) * x % Q) / Q) for B in range(1, Q + 1)]
             for Q in range(2 ** (s - 1), 2 ** s)}
    arcs = [(arithmetic.weyl_row(Q, A),
             [lookup[Fraction(B % Q, Q)] for B in range(1, Q + 1)], chars[Q])
            for A, Q in arithmetic.arc_pairs(s, 2)]
    return len(lookup), length, arcs


def seqspace_ratio(level, c) -> float:
    """Ratio for the coefficient-to-function map x -> sum_B c_{B/Q} S e(Bx/Q).

    level comes from seqspace_level; c is aligned with seqspace_freqs(s).
    The sup over arcs of |sum_B| is measured in l2 over the level's
    interval I and normalized by |I|^(1/2) ||c||_2.
    """
    n_freqs, length, arcs = level
    c = np.asarray(c, dtype=complex)
    if c.shape != (n_freqs,):
        raise DomainError("coefficient vector must align with the %d level "
                          "frequencies" % n_freqs)
    if not np.isfinite(c).all():
        raise DomainError("non-finite coefficients: no sequence-space ratio")
    cnorm = l2(c)
    if cnorm == 0.0:
        return 0.0
    best = np.zeros(length)
    for srow, idx, chars in arcs:
        F = np.zeros(length, dtype=complex)
        for w, i, char in zip(srow, idx, chars):
            F += c[i] * w * char
        np.maximum(best, np.abs(F), out=best)
    return l2(best) / (math.sqrt(length) * cnorm)


def vr_sup(stacks, f, r) -> np.ndarray:
    """Pointwise sup over the stacks of the r-variation across the rows of
    each stack applied to the signal f on Z/M, as a 1-d array.

    stacks is any iterable of anchored SupportStacks or ShiftedStacks,
    listed and applied by _filtered; vr_batch runs on each view, row 0
    included, and the max is kept on the r-th powers.
    """
    best = np.zeros(np.size(f))
    for spec in _filtered(stacks, f):
        np.maximum(best, variation.vr_batch(spec, r), out=best)
    return best ** (1.0 / r)


def vrd_operator(f: Signal, bump: SmoothBump, lam, P_grid, k_list, r) -> Signal:
    """Time-domain variation operator over modulated partial-sum kernels.

    Per x on the full convolution support against the longest kernel: sup
    over P (the zero polynomial always included) of the exact r-variation
    of k -> sum_n Psi_k(n) e(P(n)) f(x - n).  f is zero-padded to that
    support's length, where the cyclic convolution is the one on Z, and
    each P gives vr_sup one anchored stack of kernel_transforms.
    """
    k_list = _scales(k_list)
    polys = [polykit.Poly.zero(), *P_grid]   # a repeat changes no sup
    kernels = [make_Psi(bump, lam, k).at_integers() for k in k_list]
    M = len(f) + len(kernels[-1]) - 1
    padded = np.pad(f.values, (0, M - len(f)))
    stacks = (ShiftedStack(kernel_transforms(
        [vals * e(polykit.phase_range(p, 0, len(vals))) for vals in kernels],
        M, anchored=True), 0) for p in polys)
    return Signal(f.support_start, vr_sup(stacks, padded, r))
