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
run once per level, and an apply, one batched inverse FFT per draw:
arc_symbols' dense (arcs, M) rows with maximal_arc_ratio, and for each
variation operator (vr-s, vr-sd, carleson's theta sup and vrd_operator) a
stack builder with vr_sup.  kernel_transforms is the one wrap-and-transform
of kernels on Z into rows on Z/M, for _kernel_hat, harness.theta_symbols
and vrd_operator.  The variation reads only row differences, so every
stack is built anchored: rows 1.. minus row 0, subtracted in place.
build_arc_multiplier stores each stack on its support (a SupportStack),
the window nonzeros of the arcs in its lambda ball.  vr_sup takes that
form and a ShiftedStack, a dense stack read at a cyclic column offset (the
theta grid reads one set of truncation transforms at many, vrd_operator
each stack at 0).  It writes the values times the signal's transform into
rows 1.. of one buffer whose row 0 stays zero, inverts them in place and
takes one 1/r root per call, so no stack is copied or rolled.  The vr-sd
stacks are build_arc_multiplier's on lambda_grid_for; its points 3k+1 are
the arc centres A/Q, where every offset vanishes, and the vr-s table is
the sup over their stacks alone.
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
from .signalkit import CyclicSignal, Signal
from .util import DomainError, GridTooCoarseError, e, torus_signed, write_csv

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


def kernel_transforms(kernels, M, anchored=False) -> np.ndarray:
    """The DFTs on Z/M of kernels given as (n0, values) on Z, as the rows
    of a read-only (K, M) array: each is wrapped round Z/M (values added at
    (n0 + i) mod M) and transformed in place; anchored=True anchors them
    (see vr_sup).  Refuses a kernel longer than M, which the wrap would
    fold onto itself."""
    out = np.zeros((len(kernels), M), dtype=complex)
    for row, (n0, vals) in zip(out, kernels):
        if len(vals) > M:
            raise DomainError("kernel support %d exceeds the grid modulus %d"
                              % (len(vals), M))
        np.add.at(row, (n0 + np.arange(len(vals))) % M, vals)
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
    n0, vals = make_Psi(bump, lam, J, s_floor=s).at_integers()
    if any(m != 0.0 for m in mu):
        p = polykit.Poly.vanish2(mu)
        vals = vals * e(-polykit.phase_range(p, n0, len(vals)))
    return kernel_transforms([(n0, vals)], M)[0]


def arc_symbol(A, Q, M, chi, khat=None, support=None) -> np.ndarray:
    """sum over B = 1..Q of S(A/Q, B/Q) * K_hat(. - b_B) * chi(. - b_B) on
    support, a sorted array of indices into Z/M (None: all of Z/M) that
    holds every nonzero of the arc's windows.

    b_B is the grid index of B/Q (snap_to_grid against the chi radius).
    Each term is added on its window's nonzeros only; off them it is zero,
    so the values equal those of the full-grid sum bit for bit.
    khat=None stands for K_hat = 1: the plain window symbol of the arc.
    """
    srow = arithmetic.weyl_row(Q, A)
    place = np.arange(M)        # grid index -> position in the result
    if support is not None:
        place[support] = np.arange(len(support))
    acc = np.zeros(M if support is None else len(support), dtype=complex)
    for B in range(1, Q + 1):
        b0, _off = snap_to_grid(M, B, Q, chi.radius)
        idx, window = chi.window(M, b0)
        at = place[idx]
        if khat is None:
            acc[at] += srow[B - 1] * window
        else:
            acc[at] += srow[B - 1] * khat[idx - b0] * window
    return acc


class SupportStack(NamedTuple):
    """An anchored multiplier stack stored on its support: the sorted
    indices into Z/modulus off which every row vanishes, and the (J - 1,
    len(support)) anchored values there."""

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

    A stack's support is the union of the chi_s window nonzeros of the arcs
    in lambda_vec's ball, and each arc's symbol is summed there alone, so
    scattered into zeros a stack is the anchored dense array bit for bit.
    The level's window, its checks and the arcs in each lambda_vec's ball
    are found once; one kernel transform is made per distinct (J, offsets).
    The kernel scale floor and gate use DEFAULT_A0; chi_a0 governs only the
    chi_s window width, so narrow-window probes keep the kernel floor
    intact.  Any M is accepted here (the vr-sd sweep refuses M below
    MIN_MODULUS as a config range); snapping and kernel-support errors
    still apply.
    """
    chi = _level_chi(s, chi_a0)
    M = int(M)
    J_list = _scales(J_list)
    j0 = psi_floor_index(chi.s)
    if J_list[0] < j0:
        raise DomainError("scale J=%d is below the level floor j0=%d"
                          % (J_list[0], j0))
    ball = arc_indicator_radius(chi.s)
    hits = []           # per lambda_vec: the arcs in its ball, with offsets
    for lambda_vec in lambda_grid:
        lambda_vec = tuple(float(x) for x in lambda_vec)
        hits.append([])
        for A, Q in arithmetic.arc_pairs(chi.s, len(lambda_vec) + 1):
            offs = tuple(float(torus_signed(lv - a / Q))
                         for lv, a in zip(lambda_vec, A))
            if all(abs(o) <= ball for o in offs):
                hits[-1].append((A, Q, offs))
    # the windows of an arc depend on its Q alone: covered[Q] marks them
    covered = {}
    for arcs in hits:
        for _A, Q, _offs in arcs:
            if Q not in covered:
                covered[Q] = np.zeros(M, dtype=bool)
                for B in range(1, Q + 1):
                    b0, _off = snap_to_grid(M, B, Q, chi.radius)
                    covered[Q][chi.window(M, b0)[0]] = True
    stacks = []
    for arcs in hits:
        mask = np.zeros(M, dtype=bool)
        for _A, Q, _offs in arcs:
            mask |= covered[Q]
        support = np.flatnonzero(mask)
        stacks.append(SupportStack(M, support, np.zeros(
            (len(J_list) - 1, len(support)), dtype=complex)))
    heads = [np.zeros(len(st.support), dtype=complex) for st in stacks]
    for j, J in enumerate(J_list):
        khats = {}      # one scale's kernel transforms alive at a time
        for stack, head, arcs in zip(stacks, heads, hits):
            row = stack.values[j - 1] if j else head    # row 0: build only
            for A, Q, offs in arcs:
                if offs not in khats:
                    khats[offs] = _kernel_hat(bump, lam, J, chi.s, offs, M)
                if khats[offs] is not None:
                    row += arc_symbol(A, Q, M, chi, khats[offs],
                                      stack.support)
            if j:
                row -= head
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
    if M != f.modulus:
        raise DomainError("signal modulus %d != symbol grid %d"
                          % (f.modulus, M))


def arc_symbols(s: int, M: int, chi_a0=DEFAULT_A0) -> np.ndarray:
    """One window symbol per level-s arc, in arc_pairs order: an (arcs, M)
    array for maximal_arc_ratio."""
    chi = _level_chi(s, chi_a0)
    return np.array([arc_symbol(A, Q, int(M), chi)
                     for A, Q in arithmetic.arc_pairs(chi.s, 2)])


def maximal_arc_ratio(symbols, f) -> float:
    """l2 ratio of the arc-maximal function against f.

    Each row of symbols (from arc_symbols) filters f; the sup of |g| over
    the rows is measured in l2 and normalized by ||f||_2.
    """
    _check_grid(symbols.shape[-1], f)
    norm = f.l2()
    if norm == 0.0:
        return 0.0
    g = np.fft.ifft(symbols * np.fft.fft(f.values), axis=1)
    return float(np.linalg.norm(np.abs(g).max(axis=0)) / norm)


def seqspace_freqs(s: int):
    """Canonical sorted list of reduced frequencies B/Q for the level-s range."""
    s = int(s)
    out = set()
    for Q in range(2 ** (s - 1), 2 ** s):
        for B in range(1, Q + 1):
            out.add(Fraction(B % Q, Q))
    return tuple(sorted(out))


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
    need = math.ceil(1.0 / (2.0 * chi.radius))
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
    cnorm = float(np.linalg.norm(c))
    if cnorm == 0.0:
        return 0.0
    best = np.zeros(length)
    for srow, idx, chars in arcs:
        F = np.zeros(length, dtype=complex)
        for w, i, char in zip(srow, idx, chars):
            coeff = c[i] * w
            if coeff == 0.0:
                continue
            F += coeff * char
        np.maximum(best, np.abs(F), out=best)
    return float(np.linalg.norm(best) / (math.sqrt(length) * cnorm))


def vr_sup(stacks, f, r) -> np.ndarray:
    """Pointwise sup over the stacks of the r-variation across the rows of
    each stack applied to f.

    stacks is any iterable (a generator too) of anchored stacks of n rows:
    SupportStacks, whose values times f's transform fill rows 1.. of a
    zeroed (n, M) buffer, or ShiftedStacks, whose shifted values fill them
    with two slice products.  Rows 1.. are inverted in place, vr_batch runs
    on all n rows, and the buffer is reused for the next stack of the same
    row count.  A one-row stack has variation 0.  The max is kept on the
    r-th powers and the call takes one 1/r root.
    """
    fhat = np.fft.fft(f.values)
    M = f.modulus
    best = np.zeros(M)
    spec = None
    for stack in stacks:
        shifted = isinstance(stack, ShiftedStack)
        _check_grid(stack.values.shape[-1] if shifted else stack.modulus, f)
        if len(stack.values) == 0:
            continue
        if spec is None or len(spec) != len(stack.values) + 1:
            spec = np.zeros((len(stack.values) + 1, M), dtype=complex)
        rows = spec[1:]
        if shifted:
            m = stack.shift % M
            np.multiply(stack.values[:, m:], fhat[:M - m], out=rows[:, :M - m])
            np.multiply(stack.values[:, :m], fhat[M - m:], out=rows[:, M - m:])
        else:
            rows.fill(0.0)
            rows[:, stack.support] = stack.values * fhat[stack.support]
        np.fft.ifft(rows, axis=1, out=rows)
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
    n0_max, vals_max = kernels[-1]
    M = len(f) + len(vals_max) - 1
    padded = CyclicSignal(np.pad(f.values, (0, M - len(f))))
    stacks = (ShiftedStack(kernel_transforms(
        [(n0 - n0_max, vals * e(polykit.phase_range(p, n0, len(vals))))
         for n0, vals in kernels], M, anchored=True), 0) for p in polys)
    return Signal(f.support_start + n0_max, vr_sup(stacks, padded, r))


def ratio_table_csv(path, rows):
    """Shared CSV layout for operator norm-ratio sweeps."""
    write_csv(path, ("s", "r", "M", "batch_size", "mean_ratio",
                     "max_ratio", "std_err"), rows)
