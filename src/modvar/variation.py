"""Variation norms, jump counting, and the metric chaining cover.

The r-variation of a finite sequence is the supremum of
(sum_k |a_{N_k} - a_{N_{k-1}}|^r)^(1/r) over increasing subsequences.  The
supremum is computed exactly by dynamic programming over end indices; a
brute-force enumerator over all subsequences serves as an oracle at small
lengths.  A sequence is a 1-d array of scalars or an (n, dim) array of
vectors, and vector-valued sequences use l2 increments throughout.

vr_exact, vr_brute and jump_variation_check take a list of sequences and
return one result per sequence; one sequence is a one-element list.  They
group the sequences by shape and run each group as one batch, in blocks
whose tables (n^2 gaps or 2^n chain sums per member) hold at most
BATCH_BLOCK entries, or one member's own.  _vr_dp is the one dynamic
program: vr_exact and jump_variation_check feed it the rows of a stacked
gap tensor, vr_batch the |increments| of many scalar sequences at once, in
blocks of GAP_BLOCK // n columns, so that the DP's temporaries hold at most
GAP_BLOCK entries for any number of sequences.  It returns the r-th power
of the variation and leaves the 1/r root to its callers.  vr_batch takes
the root as one vector pow, the per-sequence functions as one scalar pow
per sequence.  numpy's vector pow gives the same bits per element whatever
the shape of the batch or of the exponent, but the scalar (libm) pow need
not match it, so the roots stay scalar where they were scalar and every
output keeps its bytes.

Jump counting asks for the longest chain of times whose consecutive values
differ by at least tau.  A greedy scan is NOT maximal for this problem
(witness values [5, 0, 10] with tau 10: the greedy chain from the first
element is empty, but 0 -> 10 jumps once), so the count uses the same
O(n^2) dynamic program as the variation norm.

The chaining cover organizes the sequence values into greedy 2^-v nets at
dyadic resolutions, each center pointing at a parent in the next coarser
net; telescoping the parent chain reconstructs every value exactly.

Every l2 gap of the DPs and the cover comes from ``_gaps``: one n x n gap
matrix per sequence, or one (n, n, B) tensor per block of B sequences of
one shape, built with the axis path of np.linalg.norm; the DPs, the nets,
the parent links and the cover checks index it.  vr_brute computes its own
gaps with the same formula.  A gap matrix holds 8 n^2 bytes, so every
function that builds one refuses sequences longer than MAX_DP_LENGTH.  The
squares inside norm underflow for gaps below about 1e-154 (vr_batch, on
np.abs, does not); this is left as is because switching to np.abs would
move output bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .util import DomainError

MAX_DP_LENGTH = 4096
MAX_BRUTE_LENGTH = 18
COVER_RESOLUTION = 1e-6
GAP_BLOCK = 1 << 16    # difference entries per block in _gaps and vr_batch
BATCH_BLOCK = 1 << 20  # table entries per block of same-shape sequences


def _as_value_matrix(seq):
    """A 1-d or 2-d sequence -> complex (n, dim) matrix."""
    arr = np.asarray(seq, dtype=complex)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise DomainError("sequence must be 1-d or 2-d")
    return arr


def _check_r(r):
    r = float(r)
    if not (r > 1.0):
        raise DomainError("variation exponent r must exceed 1, got %r" % (r,))
    return r


def _gaps(vals):
    """The l2 gaps |vals[i] - vals[j]| of a value matrix (n, dim), shape
    (n, n), or of a stack of B value matrices (n, B, dim), shape (n, n, B).

    Row i equals np.linalg.norm(vals[i] - vals, axis=-1) bit for bit.  Rows
    are built in blocks of at most GAP_BLOCK difference entries, so the
    transient stays small next to the gaps themselves.
    """
    n = len(vals)
    if n > MAX_DP_LENGTH:
        raise DomainError("sequence longer than %d; split the call" % MAX_DP_LENGTH)
    G = np.empty((n,) + vals.shape[:-1])
    step = max(1, GAP_BLOCK // max(1, vals.size))
    for a in range(0, n, step):
        G[a:a + step] = np.linalg.norm(vals[a:a + step, None] - vals[None],
                                       axis=-1)
    return G


def _blocks(seqs, cost):
    """The sequences grouped by shape, in blocks; yields (indices, stack).

    indices are the block's positions in seqs and stack their value
    matrices as one (n, members, dim) array.  cost(n) counts the table
    entries one member of length n needs, so a block holds at most
    BATCH_BLOCK // cost(n) members, and at least one.
    """
    mats = [_as_value_matrix(s) for s in seqs]
    classes = {}
    for k, m in enumerate(mats):
        classes.setdefault(m.shape, []).append(k)
    for (n, _dim), idx in classes.items():
        step = max(1, BATCH_BLOCK // max(1, cost(n)))
        for a in range(0, len(idx), step):
            block = idx[a:a + step]
            yield block, np.stack([mats[k] for k in block], axis=1)


def _vr_dp(gaps, shape, r):
    """The r-th power of the r-variation by dynamic programming; D[i] is the
    best chain ending at i.

    gaps(i) returns the gaps from entry i to entries 0..i-1, an array of
    shape (i,) + shape[1:]; the DP runs on every column of shape at once,
    with r one exponent or one per column.  Every chain's last link comes
    from some earlier end, so maximizing over predecessors is exhaustive.
    The caller takes the 1/r root.
    """
    if shape[0] == 0:
        raise DomainError("empty sequence has no variation")
    D = np.zeros(shape)
    for i in range(1, shape[0]):
        D[i] = (D[:i] + gaps(i) ** r).max(axis=0)
    return D.max(axis=0)


def vr_exact(seqs, r) -> list:
    """Exact r-variation of each sequence, O(n^2) each; one float apiece."""
    r = _check_r(r)
    out = [None] * len(seqs)
    for idx, vals in _blocks(seqs, lambda n: n * n):
        G = _gaps(vals)
        powers = _vr_dp(lambda i: G[i, :i], G.shape[1:], r)
        for k, p in zip(idx, powers):
            out[k] = float(p ** (1.0 / r))
    return out


def vr_batch(values, r) -> np.ndarray:
    """r-variation of many scalar sequences at once.

    values has shape (n_times, n_sequences); returns one variation value per
    column, from the DP of vr_exact run on blocks of GAP_BLOCK // n_times
    columns, so its temporaries hold at most GAP_BLOCK entries however
    many columns there are.  The columns are independent, so the blocks
    give the bytes of one DP over all of them.
    """
    r = _check_r(r)
    vals = np.asarray(values)
    if vals.ndim != 2:
        raise DomainError("expected a (times x sequences) matrix")
    n, cols = vals.shape
    if n > MAX_DP_LENGTH:
        raise DomainError("sequence longer than %d; split the call" % MAX_DP_LENGTH)
    step = GAP_BLOCK // max(1, n)
    powers = np.empty(cols)
    # one block at least, so that _vr_dp refuses an empty sequence
    for a in range(0, max(1, cols), step):
        blk = vals[:, a:a + step]
        powers[a:a + step] = _vr_dp(lambda i: np.abs(blk[i] - blk[:i]),
                                    blk.shape, r)
    return powers ** (1.0 / r)


def vr_brute(seqs, r) -> list:
    """Exhaustive r-variation over all increasing subsequences (oracle).

    The chains of a length-n sequence are its 2^n - 1 nonempty index
    bitmasks.  A chain's sum is the sum of its prefix (the mask without its
    top bit) plus the powered gap from the prefix's top index, so every sum
    adds its links in chain order.  The gaps are computed here, not by
    _gaps, so the oracle shares no code with the dynamic program.
    """
    r = _check_r(r)
    out = [None] * len(seqs)
    for idx, vals in _blocks(seqs, lambda n: 1 << n):
        n = len(vals)
        if n == 0:
            raise DomainError("empty sequence has no variation")
        if n > MAX_BRUTE_LENGTH:
            raise DomainError("brute-force variation refuses length %d > %d"
                              % (n, MAX_BRUTE_LENGTH))
        dist_pow = np.linalg.norm(vals[:, None] - vals[None], axis=-1) ** r
        sums = np.zeros((1 << n, len(idx)))
        top = np.zeros(1 << n, dtype=int)    # top[m]: the top index of mask m
        for h in range(n):
            lo = 1 << h
            sums[lo + 1:2 * lo] = sums[1:lo] + dist_pow[top[1:lo], h]
            top[lo:2 * lo] = h
        for k, best in zip(idx, sums.max(axis=0)):
            out[k] = float(best ** (1.0 / r))
    return out


def _chain_dp(G, tau):
    """Longest chain (edge count) with consecutive gaps >= tau.

    G is one gap matrix (n, n) or a stack (n, n, B), with tau one
    threshold or one per column; returns one count per column.
    """
    far = G >= tau
    best = np.zeros(G.shape[1:], dtype=int)
    for i in range(1, len(G)):
        best[i] = np.where(far[i, :i], best[:i] + 1, 0).max(axis=0)
    return best.max(axis=0, initial=0)


def _check_tau(tau):
    tau = float(tau)
    if tau <= 0:
        raise DomainError("jump threshold tau must be positive")
    return tau


def jump_count(seq, tau) -> int:
    """Maximal K with times M_0 < ... < M_K, |a_{M_i} - a_{M_{i-1}}| >= tau."""
    tau = _check_tau(tau)
    return int(_chain_dp(_gaps(_as_value_matrix(seq)), tau))


def jump_variation_check(seqs, tau, r) -> list:
    """Verify tau * K^(1/r) <= V^r on each whole sequence.

    tau and r are one value for every sequence or one per sequence.
    Returns one (holds, slack) per sequence, with slack = V^r - tau *
    K^(1/r).  The inequality is an identity of definitions: a K-jump chain
    is itself a subsequence with increment-power sum >= K * tau^r.
    """
    taus = np.array([_check_tau(t) for t in np.broadcast_to(tau, len(seqs))])
    rs = np.array([_check_r(x) for x in np.broadcast_to(r, len(seqs))])
    out = [None] * len(seqs)
    for idx, vals in _blocks(seqs, lambda n: n * n):
        G = _gaps(vals)
        jumps = _chain_dp(G, taus[idx]).tolist()
        powers = _vr_dp(lambda i: G[i, :i], G.shape[1:], rs[idx])
        for k, K, p in zip(idx, jumps, powers):
            tau_k, r_k = float(taus[k]), float(rs[k])
            slack = float(p ** (1.0 / r_k)) - tau_k * K ** (1.0 / r_k)
            out[k] = (slack >= -1e-12, slack)
    return out


@dataclass
class ChainingCover:
    """Greedy dyadic nets over the values of a sequence, with parent links.

    levels[v] lists center indices of the 2^-v net; parent[(v, i)] is the
    minimal-time center of the (v-1)-net whose 2^(1-v) ball meets the 2^-v
    ball of center i.
    """

    levels: dict
    parent: dict
    v_min: int
    v_max: int

    def radius(self, v):
        return 2.0 ** (-v)


def build_chaining_cover(seq, resolution=COVER_RESOLUTION) -> ChainingCover:
    """Nets at radii 2^-v from one covering everything down to the floor.

    Centers are chosen greedily in time order: the first element not within
    2^-v of an existing center becomes one.
    """
    vals = _as_value_matrix(seq)
    n = len(vals)
    if n == 0:
        raise DomainError("cannot cover an empty sequence")
    if not np.isfinite(vals).all():
        raise DomainError("cannot cover non-finite values")
    G = _gaps(vals)
    diam = float(G.max())
    if diam == 0.0:
        return ChainingCover({0: (0,)}, {}, 0, 0)
    v_min = int(math.floor(-math.log2(diam)))
    v_max = int(math.floor(-math.log2(resolution * diam)))
    v_max = max(v_max, v_min)

    levels = {}
    for v in range(v_min, v_max + 1):
        rad = 2.0 ** (-v)
        covered = np.zeros(n, dtype=bool)   # within rad of an earlier center
        centers = []
        for i in range(n):
            if not covered[i]:
                centers.append(i)
                covered |= G[i] <= rad
        levels[v] = tuple(centers)

    parent = {}
    for v in range(v_min + 1, v_max + 1):
        rad = 2.0 ** (-v)
        coarse = list(levels[v - 1])
        near = G[list(levels[v])][:, coarse] <= 3.0 * rad
        if not near.any(axis=1).all():
            raise AssertionError("cover invariant broken: no parent")
        # argmax finds the first hit, the minimal-time center
        for i, k in zip(levels[v], near.argmax(axis=1)):
            parent[(v, i)] = coarse[k]
    return ChainingCover(levels, parent, v_min, v_max)


def verify_cover(cover: ChainingCover, seq):
    """Assert every stated cover invariant; returns the increment-bound max.

    Checks: every element within 2^-v of a center at each level; parents
    exist, live one level up, and sit within 3 * 2^-v.
    """
    G = _gaps(_as_value_matrix(seq))
    worst = 0.0
    for v, centers in cover.levels.items():
        rad = cover.radius(v)
        uncovered = np.flatnonzero(G[:, list(centers)].min(axis=1) > rad + 1e-12)
        if len(uncovered):
            raise AssertionError("point %d uncovered at level %d"
                                 % (uncovered[0], v))
        if v == cover.v_min:
            continue
        for i in centers:
            p = cover.parent[(v, i)]
            if p not in cover.levels[v - 1]:
                raise AssertionError("parent not a center one level up")
            nu = G[i, p]
            if nu > 3.0 * rad + 1e-12:
                raise AssertionError("increment bound broken at level %d" % v)
            worst = max(worst, nu / rad)
    return worst


def chaining_telescope_check(cover: ChainingCover, seq) -> float:
    """Max deviation of value(t) from ancestor value plus telescoped steps."""
    vals = _as_value_matrix(seq)
    leaves = np.array(cover.levels[cover.v_max])
    node = leaves
    total = np.zeros((len(leaves), vals.shape[1]), dtype=complex)
    for v in range(cover.v_max, cover.v_min, -1):
        p = np.array([cover.parent[(v, i)] for i in node.tolist()])
        total += vals[node] - vals[p]
        node = p
    dev = vals[node] + total - vals[leaves]
    return float(np.sqrt(np.max((dev.real ** 2 + dev.imag ** 2).sum(axis=1))))
