"""Variation norms, jump counting, and the metric chaining cover.

The r-variation of a finite sequence is the supremum of
(sum_k |a_{N_k} - a_{N_{k-1}}|^r)^(1/r) over increasing subsequences.  The
supremum is computed exactly by dynamic programming over end indices; a
brute-force enumerator over all subsequences serves as an oracle at small
lengths.  A sequence is a 1-d array of scalars or an (n, dim) array of
vectors, and vector-valued sequences use l2 increments throughout.

vr_exact, vr_brute, jump_variation_check and the cover functions take a
list of sequences; one sequence is a one-element list.  They group the
sequences by shape (the cover by length alone, zero-padding the dims) and
run each group as one batch, in blocks whose tables (n^2 gaps or 2^n chain
sums per member) hold at most BATCH_BLOCK entries, or one member's own.
_vr_dp is the one dynamic program, a max-plus chain over the links its
callers give: the r-th powers of the rows of a stacked gap tensor
(vr_exact, jump_variation_check) or of the |increments| of many anchored
scalar sequences (vr_batch: row 0 zero, its links |x_i|^r taken in one
pass before the DP over rows 1.., in blocks of GAP_BLOCK // n columns, so
the DP's temporaries hold at most GAP_BLOCK entries).  It returns the r-th
power of the variation, and so does vr_batch: the per-sequence functions
take one scalar root per sequence, multipliers.vr_sup one vector root of
the max over its batches.

Jump counting asks for the longest chain of times whose consecutive values
differ by at least tau.  A greedy scan is NOT maximal for this problem
(witness values [5, 0, 10] with tau 10: the greedy chain from the first
element is empty, but 0 -> 10 jumps once), so the count runs the same
dynamic program on links 1 (a gap of at least tau) or -inf, exactly.

The chaining cover organizes the sequence values into greedy 2^-v nets at
dyadic resolutions, each center pointing at a parent in the next coarser
net; telescoping the parent chain reconstructs every value exactly.  A
cover is a centre mask and a parent time per (sequence, level) row, and a
block is one loop over its times on all its rows, so beside its gaps it
holds a few (rows, n) arrays.

Every l2 gap of vr_exact, the jump count and the cover comes from one kernel,
``_gaps``: one n x n gap matrix per sequence, or one (n, n, B) tensor per
block of B sequences, summed from squared differences of real planes with
correctly rounded operations only, so its bits do not depend on numpy's SIMD
dispatch and a zero-padded dim adds exact zeros.  vr_brute roots its own sums
over dims of re * re + im * im.  A gap matrix holds 8 n^2 bytes, so every
function that builds one refuses sequences longer than MAX_DP_LENGTH.  The
squares underflow for gaps below about 1e-154, in these DPs and vr_brute
alike; vr_batch's complex np.abs does not, and its bits follow the dispatch.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .util import DomainError

MAX_DP_LENGTH = 4096
MAX_BRUTE_LENGTH = 18
MAX_R = 64              # the DPs sum r-th powers in doubles
COVER_RESOLUTION = 1e-6
GAP_BLOCK = 1 << 16    # difference entries per block in _gaps and vr_batch
BATCH_BLOCK = 1 << 20  # table entries per block of sequences


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
    if not 1.0 < r <= MAX_R:
        raise DomainError("variation exponent r must exceed 1 and be finite, "
                          "at most %d, got %r" % (MAX_R, r))
    return r


def _gaps(vals):
    """The l2 gaps |vals[i] - vals[j]| of a value matrix (n, dim), shape
    (n, n), or of a stack of B value matrices (n, B, dim), shape (n, n, B).

    Per block of rows of at most GAP_BLOCK difference entries, t * t of the
    differences t of each real plane re_0, im_0, re_1, ... is added in that
    order into a zeroed G, and one sqrt takes the roots: correctly rounded
    steps only, and a member's zero-padded dims add exact zeros.
    """
    n = len(vals)
    if n > MAX_DP_LENGTH:
        raise DomainError("sequence longer than %d; split the call" % MAX_DP_LENGTH)
    # complex as float pairs: the last axis reads re_0, im_0, re_1, ...
    planes = np.moveaxis(np.ascontiguousarray(vals).view(float), -1, 0).copy()
    G = np.zeros((n,) + vals.shape[:-1])
    step = max(1, GAP_BLOCK // max(1, G[:1].size))
    t = np.empty((min(step, n),) + G.shape[1:])
    for a in range(0, n, step):
        blk = G[a:a + step]
        tb = t[:len(blk)]
        for p in planes:
            np.subtract(p[a:a + step, None], p[None], out=tb)
            blk += np.multiply(tb, tb, out=tb)
    return np.sqrt(G, out=G)


def _blocks(seqs, cost, key=np.shape):
    """The sequences grouped by key(value matrix), in blocks; yields
    (indices, dims, stack).

    indices are the block's positions in seqs, ordered by dim, dims their
    dims, and stack their value matrices as one (n, members, dim) array,
    zero-padded to the largest dim where key=len lets dims mix.  cost(n)
    counts the table entries one member of length n needs, so a block
    holds at most BATCH_BLOCK // cost(n) members, and at least one.  A
    nan or inf value is refused here, the one finiteness check.
    """
    mats = [_as_value_matrix(s) for s in seqs]
    classes = {}
    for k in sorted(range(len(mats)), key=lambda k: mats[k].shape[1]):
        classes.setdefault(key(mats[k]), []).append(k)
    for idx in classes.values():
        n = len(mats[idx[0]])
        if n == 0:
            raise DomainError("empty sequence: no variation, jump or cover")
        step = max(1, BATCH_BLOCK // cost(n))
        for a in range(0, len(idx), step):
            block = idx[a:a + step]
            dims = [mats[k].shape[1] for k in block]
            stack = np.zeros((n, len(block), dims[-1]), dtype=complex)
            for j, k in enumerate(block):
                stack[:, j, :dims[j]] = mats[k]
            if not np.isfinite(stack).all():
                raise DomainError("non-finite values: no variation, jump "
                                  "or cover")
            yield block, dims, stack


def _vr_dp(links, D):
    """The best chain by max-plus dynamic programming; D[i] is the best
    chain ending at i.

    D[i] holds on entry the best chain ending at i from outside D: 0, or
    the link from vr_batch's anchor.  links(i) returns the links from entry
    i to entries 0..i-1 (r-th powers of gaps, or a jump's 1 or -inf), an
    array of shape (i,) + D.shape[1:]; the DP runs on every column of D at
    once.  Every chain's last link comes from some earlier end, so
    maximizing over predecessors is exhaustive.
    """
    for i in range(1, len(D)):
        np.maximum(D[i], (D[:i] + links(i)).max(axis=0), out=D[i])
    return D.max(axis=0, initial=0.0)


def vr_exact(seqs, r) -> list:
    """Exact r-variation of each sequence, O(n^2) each; one float apiece."""
    r = _check_r(r)
    out = [None] * len(seqs)
    for idx, _dims, vals in _blocks(seqs, lambda n: n * n):
        G = _gaps(vals)
        powers = _vr_dp(lambda i: G[i, :i] ** r, np.zeros(G.shape[1:]))
        for k, p in zip(idx, powers):
            out[k] = float(p ** (1.0 / r))
    return out


def vr_batch(values, r) -> np.ndarray:
    """The r-th power of the r-variation of many anchored scalar sequences.

    values is (n_times, n_sequences) with row 0 zero, as in every stack of
    multipliers.vr_sup; a nonzero row 0 is refused.  The links from row 0
    are |x_i|^r, taken in one pass, and the DP of vr_exact runs on rows 1..
    alone: bit for bit the DP over all n rows, as x - 0 differs from x at
    most in the sign of a zero, which abs drops, and 0 + g = g.  It runs on
    blocks of GAP_BLOCK // n_times columns, so its temporaries hold at most
    GAP_BLOCK entries; the columns are independent, so the blocks give the
    bytes of one DP over all of them.  The caller takes the 1/r root.
    """
    r = _check_r(r)
    vals = np.asarray(values)
    if vals.ndim != 2:
        raise DomainError("expected a (times x sequences) matrix")
    n, cols = vals.shape
    if n > MAX_DP_LENGTH:
        raise DomainError("sequence longer than %d; split the call" % MAX_DP_LENGTH)
    if n == 0 or np.any(vals[0]):
        raise DomainError("vr_batch takes anchored columns: a zero row 0")
    step = GAP_BLOCK // n
    powers = np.empty(cols)
    for a in range(0, cols, step):
        blk = vals[1:, a:a + step]
        # D[0] = 0 is the anchor's chain, D[1:] starts as the link from it:
        # one (n, columns) buffer, as the DP over all rows allocated (n - 1
        # rows moved glibc's mmap threshold, and with it about 9 MB of a
        # later time-side pass onto the heap)
        D = np.zeros((n, blk.shape[1]))
        np.power(np.abs(blk, out=D[1:]), r, out=D[1:])
        powers[a:a + step] = _vr_dp(
            lambda i: np.abs(blk[i] - blk[:i]) ** r, D[1:])
    return powers


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
    for idx, _dims, vals in _blocks(seqs, lambda n: 1 << n):
        n = len(vals)
        if n > MAX_BRUTE_LENGTH:
            raise DomainError("brute-force variation refuses length %d > %d"
                              % (n, MAX_BRUTE_LENGTH))
        d = vals[:, None] - vals[None]
        dist_pow = np.sqrt((d.real * d.real + d.imag * d.imag).sum(-1)) ** r
        sums = np.zeros((1 << n, len(idx)))
        top = np.zeros(1 << n, dtype=int)    # top[m]: the top index of mask m
        for h in range(n):
            lo = 1 << h
            sums[lo + 1:2 * lo] = sums[1:lo] + dist_pow[top[1:lo], h]
            top[lo:2 * lo] = h
        for k, best in zip(idx, sums.max(axis=0)):
            out[k] = float(best ** (1.0 / r))
    return out


def _check_tau(tau):
    tau = float(tau)
    if not 0.0 < tau < math.inf:
        raise DomainError("jump threshold tau must be positive and finite")
    return tau


def _jumps(G, tau):
    """The jump counts of a gap stack (n, n, B), tau one threshold or one
    per column, as floats: _vr_dp on links 1 or -inf."""
    return _vr_dp(lambda i: np.where(G[i, :i] >= tau, 1.0, -np.inf),
                  np.zeros(G.shape[1:]))


def jump_count(seq, tau) -> int:
    """Maximal K with times M_0 < ... < M_K, |a_{M_i} - a_{M_{i-1}}| >= tau."""
    tau = _check_tau(tau)
    [(_idx, _dims, vals)] = _blocks([seq], lambda n: n * n)
    return int(_jumps(_gaps(vals), tau)[0])


def jump_variation_check(seqs, tau, r) -> list:
    """Verify tau * K^(1/r) <= V^r on each whole sequence.

    tau and r are one value for every sequence or one per sequence.
    Returns one (holds, slack) per sequence, with slack = V^r - tau *
    K^(1/r), which holds down to -1e-12 V^r (rounding).  The inequality
    is an identity of definitions: a K-jump chain is itself a subsequence
    with increment-power sum >= K * tau^r.
    """
    if any(np.ndim(v) and len(v) != len(seqs) for v in (tau, r)):
        raise DomainError("tau and r take one value or %d, got %d and %d"
                          % (len(seqs), np.size(tau), np.size(r)))
    taus = np.array([_check_tau(t) for t in np.broadcast_to(tau, len(seqs))])
    rs = np.array([_check_r(x) for x in np.broadcast_to(r, len(seqs))])
    out = [None] * len(seqs)
    for idx, _dims, vals in _blocks(seqs, lambda n: n * n):
        G, r_blk = _gaps(vals), rs[idx]
        jumps = _jumps(G, taus[idx]).tolist()
        powers = _vr_dp(lambda i: G[i, :i] ** r_blk, np.zeros(G.shape[1:]))
        for k, K, p in zip(idx, jumps, powers):
            tau_k, r_k = float(taus[k]), float(rs[k])
            vr = float(p ** (1.0 / r_k))
            slack = vr - tau_k * K ** (1.0 / r_k)
            out[k] = (slack >= -1e-12 * vr, slack)
    return out


class ChainingCover(NamedTuple):
    """Greedy dyadic nets over many sequences, with parent links, as arrays.

    Row r is the 2^-v net of sequence seq[r] at v = levels[r]; a sequence's
    rows run from its v_min up to its v_max.  Per block of _blocks(key=len),
    centres[k] (rows, n) marks each row's centre times and parent[k] gives
    each centre the minimal-time centre of the row before within 3 * 2^-v
    (-1 off the centres and at v_min).
    """

    seq: np.ndarray
    levels: np.ndarray
    centres: tuple
    parent: tuple


def _cover_blocks(cover, seqs):
    """Per block: (dims, vals, member, levels, below, centres, parent), with
    member[r] row r's sequence in the block and below[r] whether row r - 1
    is its coarser net."""
    ends = np.cumsum([len(m) for m in cover.centres])
    for (_idx, dims, vals), end, mask, par in zip(
            _blocks(seqs, lambda n: n * n, key=len), ends, cover.centres,
            cover.parent):
        seq = cover.seq[end - len(mask):end]
        below = np.r_[False, seq[1:] == seq[:-1]]
        yield (dims, vals, np.cumsum(~below) - 1,
               cover.levels[end - len(mask):end], below, mask, par)


def build_chaining_cover(seqs, resolution=COVER_RESOLUTION) -> ChainingCover:
    """Nets at radii 2^-v from one covering everything down to the floor.

    Centres are chosen greedily in time order: the first element not within
    2^-v of an existing centre becomes one.  A block is one loop over its
    times on all its rows: the gaps from time t extend every net and make t
    the parent of the finer rows' points it is the first centre near.
    """
    seq, levels, centres, parent = [], [], [], []
    for idx, _dims, vals in _blocks(seqs, lambda n: n * n, key=len):
        G = _gaps(vals).transpose(2, 0, 1)
        diam = G.max(axis=(1, 2)).tolist()  # a constant sequence: one net
        lo = [math.floor(-math.log2(d)) if d else 0 for d in diam]
        hi = [max(a, math.floor(-math.log2(resolution * d))) if d else 0
              for a, d in zip(lo, diam)]
        member = np.repeat(np.arange(len(diam)), np.subtract(hi, lo) + 1)
        lev = [v for a, b in zip(lo, hi) for v in range(a, b + 1)]
        rad = np.ldexp(1.0, -np.array(lev))[:, None]
        finer = member[1:] == member[:-1]   # row r + 1 lies below row r
        covered = np.zeros((len(lev), len(vals)), dtype=bool)
        mask, par = np.zeros_like(covered), np.full(covered.shape, -1)
        for t in range(len(vals)):
            g = G[member, t]
            mask[:, t] = new = ~covered[:, t]
            covered |= new[:, None] & (g <= rad)
            hit = (finer & new[:-1])[:, None] & (g[1:] <= 3.0 * rad[1:])
            par[1:][hit & (par[1:] < 0)] = t
        del G                           # before the next block's gaps
        par[~mask] = -1
        seq += np.asarray(idx)[member].tolist()
        levels += lev
        centres.append(mask)
        parent.append(par)
    return ChainingCover(np.array(seq, dtype=int), np.array(levels, dtype=int),
                         tuple(centres), tuple(parent))


def verify_cover(cover: ChainingCover, seqs):
    """Assert every stated cover invariant; returns the increment-bound max.

    Checks, each radius up to 1e-12 of itself: every element within 2^-v of
    a centre at each level; parents exist, live one level up, within 3 * 2^-v.
    """
    worst = 0.0
    for _dims, vals, member, lev, below, mask, par in _cover_blocks(cover,
                                                                   seqs):
        G = _gaps(vals).transpose(2, 0, 1)
        rad = np.ldexp(1.0, -lev)
        near = np.full(mask.shape, np.inf)      # gap to the nearest centre
        for t in range(len(vals)):
            np.minimum(near, G[member, t], out=near, where=mask[:, t, None])
        bad = np.argwhere(near > rad[:, None] * (1.0 + 1e-12))
        if len(bad):
            raise AssertionError("point %d uncovered at level %d"
                                 % (bad[0, 1], lev[bad[0, 0]]))
        r, t = np.nonzero(mask & below[:, None])
        p = par[r, t]
        if not ((p >= 0) & mask[r - 1, p]).all():
            raise AssertionError("parent not a center one level up")
        nu = G[member[r], t, p]
        del G                           # before the next block's gaps
        broken = np.flatnonzero(nu > 3.0 * rad[r] * (1.0 + 1e-12))
        if len(broken):
            raise AssertionError("increment bound broken at level %d"
                                 % lev[r[broken[0]]])
        worst = max(worst, float(np.max(nu / rad[r], initial=0.0)))
    return worst


def chaining_telescope_check(cover: ChainingCover, seqs) -> float:
    """Max deviation of value(t) from ancestor value plus telescoped steps,
    the steps added from v_max down and each deviation reduced over its own
    dim."""
    worst = 0.0
    for dims, vals, member, _lev, below, mask, par in _cover_blocks(cover,
                                                                   seqs):
        row, leaf = np.nonzero(mask & ~np.r_[below[1:], False][:, None])
        b, node = member[row], leaf.copy()
        total = np.zeros((len(leaf), vals.shape[2]), dtype=complex)
        while (step := below[row]).any():
            p = par[row[step], node[step]]
            total[step] += vals[node[step], b[step]] - vals[p, b[step]]
            node[step] = p
            row[step] -= 1
        dev = vals[node, b] + total - vals[leaf, b]
        sq, dim = dev.real ** 2 + dev.imag ** 2, np.array(dims)[b]
        for d in set(dims):
            worst = max(worst, float(np.max(sq[dim == d, :d].sum(axis=1))))
    return float(np.sqrt(worst))
