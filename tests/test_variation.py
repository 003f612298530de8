"""r-variation, jump counting, and the chaining cover invariants."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from modvar import variation
from modvar.util import DomainError
from modvar.variation import (
    _as_value_matrix,
    _gaps,
    build_chaining_cover,
    chaining_telescope_check,
    jump_count,
    jump_variation_check,
    verify_cover,
    vr_batch,
    vr_brute,
    vr_exact,
)

import oracles


def test_constant_sequence_has_zero_variation():
    assert vr_exact([[3.0, 3.0, 3.0, 3.0]], 2.5) == [0.0]


def test_monotone_ramp_single_jump_wins():
    # one 0 -> 1 step beats two half steps when r > 1
    assert vr_exact([[0.0, 0.5, 1.0]], 3)[0] == pytest.approx(1.0, abs=1e-12)


def test_up_down_accumulates_both_jumps():
    assert vr_exact([[0.0, 1.0, 0.0]], 3)[0] == pytest.approx(2 ** (1 / 3), abs=1e-12)


def test_single_point_and_pair():
    assert vr_exact([[7.0]], 2) == [0.0]
    assert vr_exact([[2.0, 5.5]], 4)[0] == pytest.approx(3.5)
    with pytest.raises(DomainError):
        vr_exact([[]], 2)


def test_variation_rejects_small_exponent():
    with pytest.raises(DomainError):
        vr_exact([[0.0, 1.0]], 1.0)


@pytest.mark.parametrize("r", [math.inf, math.nan, 64.5])
def test_vr_exact_refuses_non_finite_exponent(r):
    # r = inf once gave [1.0] here, below the largest increment 2
    with pytest.raises(DomainError, match="must exceed 1 and be finite"):
        vr_exact([np.array([0.0, 2.0])], r)


@pytest.mark.parametrize("r", [math.inf, math.nan, 64.5])
def test_vr_brute_refuses_non_finite_exponent(r):
    with pytest.raises(DomainError, match="must exceed 1 and be finite"):
        vr_brute([np.array([0.0, 2.0])], r)


@pytest.mark.parametrize("tau", [math.inf, math.nan])
def test_jump_count_refuses_non_finite_threshold(tau):
    # tau = nan once counted 0 jumps
    with pytest.raises(DomainError, match="positive and finite"):
        jump_count([0.0, 1.0, 0.0], tau)


@pytest.mark.parametrize("tau", [math.inf, math.nan])
def test_jump_variation_check_refuses_non_finite_threshold(tau):
    # either value once reported (False, nan), a false violation
    with pytest.raises(DomainError, match="positive and finite"):
        jump_variation_check([[0.0, 1.0, 0.0, 2.0]], tau, 3.0)


# each once returned a number: jump_count 2 jumps over the nan entries,
# vr_exact [nan] with a RuntimeWarning, jump_variation_check (True, inf)
@pytest.mark.parametrize("run", [
    lambda seq: jump_count(seq, 1.0),
    lambda seq: vr_exact([[0.0, 1.0], seq], 3.0),
    lambda seq: vr_brute([seq], 3.0),
    lambda seq: jump_variation_check([seq, [0.0, 1.0]], 1.0, 3.0),
], ids=["jump_count", "vr_exact", "vr_brute", "jump_variation_check"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf,
                                 complex(0.0, math.nan)])
def test_variation_refuses_non_finite_values(run, bad):
    with pytest.raises(DomainError, match="non-finite"):
        run([0.0, bad, 3.0, bad, 6.0])


def test_jump_variation_check_refuses_wrong_length_lists():
    seqs = [[0.0, 1.0], [0.0, 2.0]]
    with pytest.raises(DomainError, match=r"one value or 2, got 3 and 1"):
        jump_variation_check(seqs, [1.0, 1.0, 1.0], 3.0)
    with pytest.raises(DomainError, match=r"one value or 2, got 1 and 1"):
        jump_variation_check(seqs, 1.0, [3.0])
    assert [held for held, _slack in
            jump_variation_check(seqs, [1.0, 1.0], [3.0, 4.0])] == [True, True]


@pytest.mark.parametrize("r", [2.2, 2.5, 3.0, 8.0])
def test_dp_matches_brute_and_dfs(rng, r):
    for _ in range(20):
        n = int(rng.integers(2, 9))
        seq = rng.normal(size=n) + 1j * rng.normal(size=n)
        v_dp = vr_exact([seq], r)[0]
        assert v_dp == pytest.approx(vr_brute([seq], r)[0], abs=1e-10)
        assert v_dp == pytest.approx(oracles.vr_dfs(seq, r), abs=1e-10)


# parts are 0 or at least 1e-6 in size: below gaps of about 1e-154 the
# squares underflow, in the gaps of vr_exact and of vr_brute alike, and
# vr_batch (np.abs) does not
_part = st.floats(-1e3, 1e3).filter(lambda x: x == 0.0 or abs(x) >= 1e-6)


@st.composite
def _complex_rows(draw, max_n, max_dim, part):
    """An (n, dim) complex matrix, n <= max_n and dim <= max_dim."""
    n = draw(st.integers(1, max_n))
    dim = draw(st.integers(1, max_dim))
    parts = draw(st.lists(part, min_size=2 * n * dim, max_size=2 * n * dim))
    a = np.asarray(parts).reshape(2, n, dim)
    return a[0] + 1j * a[1]


@settings(max_examples=200)
@given(_complex_rows(10, 4, _part), st.floats(1.0, 8.0, exclude_min=True))
def test_batch_exact_and_brute_variation_agree(cols, r):
    # vr_batch takes anchored columns and returns the r-th powers; the
    # caller takes the root
    cols = cols - cols[0]
    got = vr_batch(cols, r) ** (1.0 / r)
    assert got.shape == (cols.shape[1],)
    want = vr_exact(list(cols.T), r)
    assert got.tolist() == pytest.approx(want, rel=1e-12, abs=0.0)
    assert want == pytest.approx(vr_brute(list(cols.T), r), rel=1e-12,
                                 abs=0.0)


def test_vector_variation_matches_dfs(rng):
    vals = rng.normal(size=(6, 3))
    want = 0.0
    # scalarize through the oracle by checking against brute on vectors
    assert vr_exact([vals], 2.5) == pytest.approx(vr_brute([vals], 2.5),
                                                  abs=1e-10)
    assert vr_exact([vals], 2.5)[0] >= want


def test_vr_batch_matches_columnwise(rng):
    vals = rng.normal(size=(10, 7))
    vals -= vals[0]     # anchored
    got = vr_batch(vals, 2.2)
    assert got.tolist() == pytest.approx(
        [v ** 2.2 for v in vr_exact(list(vals.T), 2.2)], rel=1e-12)


@pytest.mark.parametrize("r", [2.2, 3.0, 4.0])
def test_vr_batch_column_blocks_keep_the_bytes(r):
    # several GAP_BLOCK // n column blocks and a partial last one give
    # each column the bytes of its own one-column DP
    n = 10
    rng = np.random.default_rng(int(10 * r))
    cols = 3 * (variation.GAP_BLOCK // n) + 7
    vals = rng.normal(size=(n, cols)) + 1j * rng.normal(size=(n, cols))
    vals -= vals[0]     # anchored
    got = vr_batch(vals, r)
    want = np.concatenate([vr_batch(vals[:, [c]], r) for c in range(cols)])
    assert got.tobytes() == want.tobytes()


def _all_rows_vr_batch(vals, r):
    """The DP over all n rows, the zero row included, as vr_batch ran
    before it took anchored columns: each end's best chain is the max over
    every earlier end of its chain plus the powered gap, and the answer is
    the max over the ends.  The powers are taken on arrays, as vr_batch
    takes them: numpy's scalar and vector pow may differ in the last bit."""
    D = np.zeros(vals.shape)
    for i in range(1, len(vals)):
        D[i] = (D[:i] + np.abs(vals[i] - vals[:i]) ** r).max(axis=0)
    return D.max(axis=0)


@pytest.mark.parametrize("n", [1, 2, 3, 7])
@pytest.mark.parametrize("r", [2.2, 3.0])
def test_vr_batch_matches_nested_loop_dp_bit_for_bit(n, r):
    # the links from the anchor, taken in one pass, and the DP over rows
    # 1.. give the bytes of the DP over all rows, also on signed zeros,
    # infinities and nans
    rng = np.random.default_rng(n)
    cols = 40
    vals = rng.normal(size=(n, cols)) + 1j * rng.normal(size=(n, cols))
    vals[0] = complex(-0.0, 0.0) if n % 2 else 0.0
    if n > 1:
        vals[1:, :4] = 0.0
        vals[1:, 4:8] = complex(-0.0, -0.0)
        vals[-1, 8] = complex(np.inf, 1.0)
        vals[1, 9] = complex(np.nan, 0.0)
        vals[n // 2 + 1:, 10] = complex(-np.inf, np.inf)
    with np.errstate(invalid="ignore"):     # inf - inf
        want = _all_rows_vr_batch(vals, r)
        assert vr_batch(vals, r).tobytes() == want.tobytes()


def test_vr_batch_refuses_unanchored_columns():
    vals = np.zeros((3, 5), dtype=complex)
    vals[0, 4] = 1e-300
    with pytest.raises(DomainError, match="anchored"):
        vr_batch(vals, 3.0)
    with pytest.raises(DomainError, match="anchored"):
        vr_batch(np.zeros((0, 5)), 3.0)


def _bits(values):
    return np.array(values, dtype=float).tobytes()


def _mixed_sequences(rng):
    """Complex sequences of mixed lengths: classes of several members at
    n = 2, 5 and 18, single members at 3, 9 and 12, and a vector class."""
    seqs = [rng.normal(size=n) + 1j * rng.normal(size=n)
            for n in (2, 5, 18, 5, 2, 9, 5, 12, 18, 3, 2)]
    return seqs + [rng.normal(size=(4, 3)) for _ in range(3)]


@pytest.mark.parametrize("block", [variation.BATCH_BLOCK, 50])
def test_list_api_matches_one_element_calls_bitwise(rng, monkeypatch, block):
    # block 50 splits the n = 5 class into blocks of at most two gap
    # matrices, and the n = 5 and n = 18 classes into one chain-sum table
    # per member
    monkeypatch.setattr(variation, "BATCH_BLOCK", block)
    seqs = _mixed_sequences(rng)
    for r in (2.2, 3.0, 4.0, 8.0):
        for fn in (vr_exact, vr_brute):
            one = [fn([s], r)[0] for s in seqs]
            assert _bits(fn(seqs, r)) == _bits(one)
    taus = rng.uniform(0.05, 2.0, len(seqs)).tolist()
    rs = rng.uniform(2.1, 8.0, len(seqs)).tolist()
    got = jump_variation_check(seqs, taus, rs)
    one = [jump_variation_check([s], t, r)[0]
           for s, t, r in zip(seqs, taus, rs)]
    assert [held for held, _ in got] == [held for held, _ in one]
    assert _bits([slack for _, slack in got]) == _bits(
        [slack for _, slack in one])


def test_list_api_refuses_bad_members():
    with pytest.raises(DomainError, match="refuses length 19"):
        vr_brute([np.zeros(3), np.zeros(19)], 2.5)
    with pytest.raises(DomainError, match="longer than"):
        vr_exact([np.zeros(4097)], 2.5)
    with pytest.raises(DomainError, match="tau must be positive"):
        jump_variation_check([np.zeros(3), np.zeros(3)], [1.0, 0.0], 2.5)
    with pytest.raises(DomainError, match="must exceed 1"):
        jump_variation_check([np.zeros(3), np.zeros(3)], 1.0, [2.5, 1.0])
    assert vr_exact([], 2.5) == vr_brute([], 2.5) == []


def test_jump_count_alternating():
    assert jump_count([0.0, 1.0, 0.0, 1.0, 0.0], 1.0) == 4


def test_jump_count_greedy_counterexample():
    # a greedy chain anchored at the first element finds nothing here
    assert jump_count([5.0, 0.0, 10.0], 6.0) == 1


def test_jump_count_matches_dfs(rng):
    for _ in range(25):
        n = int(rng.integers(2, 9))
        seq = rng.normal(size=n) * 2
        tau = float(rng.uniform(0.2, 2.0))
        assert jump_count(seq, tau) == oracles.jumps_dfs(list(seq), tau)


def test_jump_count_rejects_bad_threshold():
    with pytest.raises(DomainError):
        jump_count([0.0, 1.0], 0.0)


def test_vector_jump_count_matches_dfs(rng):
    for _ in range(15):
        n = int(rng.integers(2, 8))
        vals = rng.normal(size=(n, 2))
        lam = float(rng.uniform(0.3, 2.5))
        assert jump_count(vals, lam) == oracles.vec_jumps_dfs(vals, lam)


@pytest.mark.parametrize("r", [2.2, 3.0, 8.0])
def test_jump_variation_inequality_random(rng, r):
    for _ in range(30):
        n = int(rng.integers(2, 12))
        seq = rng.normal(size=n) + 1j * rng.normal(size=n)
        tau = float(rng.uniform(0.1, 1.5))
        [(ok, slack)] = jump_variation_check([seq], tau, r)
        assert ok
        assert slack >= -1e-12


def test_jump_variation_check_holds_at_equality_at_every_scale():
    # one jump of exactly tau makes both sides equal, and the root of the
    # r-th power rounds below them (999999.9999999992 at 1e6): the margin
    # is relative to V^r, so no scale reads it as a violation
    for scale in (1e-6, 1.0, 1e6, 2.0 ** 60):
        [(ok, slack)] = jump_variation_check([[0.0, scale]], scale, 3.0)
        assert ok, (scale, slack)


def test_vec_sequence_validation():
    for bad in (np.zeros((3, 2, 1)), 1.0):
        with pytest.raises(DomainError):
            _as_value_matrix(bad)
        with pytest.raises(DomainError):
            vr_exact([bad], 2.5)
    v = _as_value_matrix([1.0, 2.0])
    assert v.dtype == complex and v.tolist() == [[1.0], [2.0]]


def _nets(cover, k):
    """Sequence k's nets in the loop oracle's form: (levels, parent, v_min,
    v_max), with levels[v] the centre times and parent[(v, i)] the parent
    time of centre i.  Checks that parent is -1 off the centres and at
    v_min."""
    sizes = [len(m) for m in cover.centres]
    start = np.cumsum([0] + sizes)
    rows = np.flatnonzero(cover.seq == k)
    blk = int(np.searchsorted(start, rows[0], side="right")) - 1
    mask = cover.centres[blk][rows - start[blk]]
    par = cover.parent[blk][rows - start[blk]]
    assert (par[~mask] == -1).all() and (par[0] == -1).all()
    v = cover.levels[rows].tolist()
    assert v == list(range(v[0], v[-1] + 1))
    levels = {lv: tuple(np.flatnonzero(m).tolist()) for lv, m in zip(v, mask)}
    parent = {(lv, i): int(p[i]) for lv, m, p in zip(v[1:], mask[1:], par[1:])
              for i in np.flatnonzero(m).tolist()}
    return levels, parent, v[0], v[-1]


def test_cover_degenerate_cases():
    seqs = [np.zeros((1, 2)), np.ones((3, 2)), [5.0]]
    cov = build_chaining_cover(seqs)
    for k in range(3):
        assert _nets(cov, k) == ({0: (0,)}, {}, 0, 0)
    assert verify_cover(cov, seqs) == 0.0
    assert chaining_telescope_check(cov, seqs) == 0.0
    with pytest.raises(DomainError):
        build_chaining_cover([np.zeros((0, 1))])
    for bad in (np.nan, np.inf):
        with pytest.raises(DomainError, match="non-finite"):
            build_chaining_cover([[0.0, bad]])


def test_cover_two_points():
    v = np.array([[0.0], [1.0]])
    cov = build_chaining_cover([v], resolution=0.25)
    levels, _parent, v_min, v_max = _nets(cov, 0)
    # at radius 1 (v = 0) one center suffices; by radius 1/4 both are centers
    assert v_min == 0
    assert len(levels[v_max]) == 2
    assert verify_cover(cov, [v]) <= 3.0
    assert chaining_telescope_check(cov, [v]) <= 1e-12


def test_cover_random_invariants(rng):
    seqs = []
    for _ in range(10):
        n = int(rng.integers(2, 17))
        dim = int(rng.integers(1, 5))
        seqs.append(rng.normal(size=(n, dim)) * rng.uniform(0.1, 10))
    cov = build_chaining_cover(seqs, resolution=1e-3)
    assert verify_cover(cov, seqs) <= 3.0
    assert chaining_telescope_check(cov, seqs) <= 1e-12
    # every level's centers are pairwise separated by more than its radius
    for k, vals in enumerate(seqs):
        for v, centers in _nets(cov, k)[0].items():
            for a in range(len(centers)):
                for b in range(a + 1, len(centers)):
                    gap = vals[centers[a]] - vals[centers[b]]
                    assert np.linalg.norm(gap) > 2.0 ** -v


def test_cover_batch_holds_one_block_of_gaps(rng):
    # two sequences of the longest length: each is a block of its own, so
    # the peak holds one gap matrix, where stacking them would hold two; a
    # coarse resolution keeps the loops over the 4096 times short
    seqs = [rng.normal(size=variation.MAX_DP_LENGTH) for _ in range(2)]
    tracemalloc.start()
    try:
        cover = build_chaining_cover(seqs, resolution=0.25)
        assert verify_cover(cover, seqs) <= 3.0
        assert chaining_telescope_check(cover, seqs) <= 1e-12
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    one = 8 * variation.MAX_DP_LENGTH ** 2
    assert one < peak < 1.25 * one


def _cut_to_first_centres(cover):
    """The cover of one sequence with every level cut to its first
    centre."""
    mask = np.zeros_like(cover.centres[0])
    mask[np.arange(len(mask)), cover.centres[0].argmax(axis=1)] = True
    return cover._replace(centres=(mask,))


def test_verify_cover_refuses_a_cut_cover_at_small_scale(rng):
    # every gap of these points lies below 1e-12, so an absolute margin
    # beyond each radius accepted the cut cover, with increment ratio 0
    vals = 1e-13 * (rng.normal(size=(12, 1)) + 1j * rng.normal(size=(12, 1)))
    cover = build_chaining_cover([vals])
    assert verify_cover(cover, [vals]) <= 3.0
    with pytest.raises(AssertionError, match="uncovered"):
        verify_cover(_cut_to_first_centres(cover), [vals])


def _verdict(fn):
    try:
        return fn()
    except AssertionError as ex:
        return str(ex)


@settings(max_examples=60)
@given(_complex_rows(12, 3, st.integers(-64, 64).map(lambda i: i / 16.0)),
       st.integers(-60, 60), st.sampled_from([2.5, 3.0, 4.0]))
def test_verifiers_do_not_depend_on_scale(vals, k, r):
    # dyadic values, many of them with gaps equal to a radius: scaling by
    # 2^k scales every gap exactly (the squares stay far from underflow),
    # so the cover shifts its levels by -k (a constant sequence keeps its
    # one level 0), and every verdict and the increment ratio keep their
    # bits
    scaled = vals * 2.0 ** k
    diam = float(np.max(_gaps(vals)))
    shift = k if diam else 0
    cover = build_chaining_cover([vals])
    cover_k = build_chaining_cover([scaled])
    assert (cover_k.levels == cover.levels - shift).all()
    assert all((a == b).all() for a, b in zip(cover.centres, cover_k.centres))
    assert verify_cover(cover_k, [scaled]) == verify_cover(cover, [vals])
    cut = _verdict(lambda: verify_cover(_cut_to_first_centres(cover), [vals]))
    cut_k = _verdict(lambda: verify_cover(_cut_to_first_centres(cover_k),
                                          [scaled]))
    if isinstance(cut, str):
        cut = re.sub(r"level (-?\d+)$",
                     lambda m: "level %d" % (int(m[1]) - shift), cut)
    assert cut_k == cut
    tau = diam or 1.0
    [(ok, _)] = jump_variation_check([vals], tau, r)
    [(ok_k, _)] = jump_variation_check([scaled], tau * 2.0 ** k, r)
    assert ok and ok_k


def _plain_gaps(vals):
    """The gap matrix of an (n, dim) value matrix by plain sums: per row, 0
    plus dr * dr, then di * di, of each dim in turn, then the root."""
    G = np.zeros((len(vals), len(vals)))
    for i in range(len(vals)):
        for d in range(vals.shape[1]):
            dr = vals[i, d].real - vals[:, d].real
            di = vals[i, d].imag - vals[:, d].imag
            G[i] = G[i] + dr * dr
            G[i] = G[i] + di * di
    return np.sqrt(G)


def _check_gap_matrix(vals):
    G = _gaps(vals)
    assert G.tobytes() == _plain_gaps(vals).tobytes()
    # np.linalg.norm sums conj(x) * x, which numpy contracts with FMA from
    # its X86_V3 dispatch up: the same gaps up to rounding, and up to the
    # squares' subnormal rounding below gaps of about 1e-154
    want = np.linalg.norm(vals[:, None] - vals[None], axis=-1)
    np.testing.assert_allclose(G, want, rtol=1e-15, atol=1e-160)
    # the cover's diameter and parent links read either triangle
    assert G.tobytes() == G.T.copy().tobytes()
    assert not np.any(np.diag(G))


@settings(max_examples=200)
@given(_complex_rows(24, 16, st.floats(-1e6, 1e6)))
def test_gap_matrix_rows_match_plain_sums_bitwise(vals):
    _check_gap_matrix(vals)


def test_gap_matrix_built_in_blocks_matches_plain_rows(rng):
    vals = rng.normal(size=(300, 3)) + 1j * rng.normal(size=(300, 3))
    _check_gap_matrix(vals)     # blocks of GAP_BLOCK // 300 = 218 rows


def test_zero_padded_block_keeps_each_members_gaps(rng):
    # the cover stacks dims 1 and 3 of one length into one block padded to
    # dim 3: the padding adds exact zeros, so each member's gaps are its own
    seqs = [rng.normal(size=(40, dim)) + 1j * rng.normal(size=(40, dim))
            for dim in (3, 1, 3, 1)]
    [(idx, dims, vals)] = variation._blocks(seqs, lambda n: n * n, key=len)
    assert dims == [1, 1, 3, 3] and vals.shape == (40, 4, 3)
    G = _gaps(vals)
    for j, k in enumerate(idx):
        assert G[:, :, j].tobytes() == _gaps(seqs[k]).tobytes()


def test_gap_matrix_refuses_overlong_sequences():
    with pytest.raises(DomainError, match="longer than"):
        jump_count(np.zeros(4097), 1.0)
    with pytest.raises(DomainError, match="longer than"):
        build_chaining_cover([np.zeros(4097)])


def _near(x, t):
    # the oracle's norm-based gaps may round across a radius they sit
    # this close to; verify_cover's margin, 1e-12 of each radius, lies
    # inside the band
    return abs(x - t) <= max(1e-9 * t, 1e-12)


def _oracle_nets(vals, resolution):
    """The loop oracle's nets of vals, or None when a gap or the diameter
    sits so close to a radius that the oracle's sums may round across it."""
    levels, parent, v_min, v_max, diam = oracles.chaining_cover_loops(
        vals, resolution)
    if diam > 0.0:
        for t in (diam, resolution * diam):
            if _near(t, 2.0 ** round(math.log2(t))):
                return None
        rads = 2.0 ** -np.arange(v_min, v_max + 1.0)
        for g in np.linalg.norm(vals[:, None] - vals[None, :], axis=2).flat:
            if any(_near(g, t) for t in np.concatenate([rads, 3 * rads])):
                return None
    return levels, parent, v_min, v_max


@settings(max_examples=150)
@given(_complex_rows(12, 4, st.floats(-4.0, 4.0)),
       st.sampled_from([1e-6, 1e-3, 0.25]))
def test_cover_matches_loop_oracle(vals, resolution):
    want = _oracle_nets(vals, resolution)
    assume(want is not None)
    cover = build_chaining_cover([vals], resolution=resolution)
    assert _nets(cover, 0) == want
    assert verify_cover(cover, [vals]) <= 3.0

    # a removed center is itself the first point left uncovered
    levels, _parent, _v_min, v = want
    if len(levels[v]) > 1:
        c = levels[v][-1]
        mask = cover.centres[0].copy()
        mask[-1, c] = False             # the last row is the v_max net
        broken = cover._replace(centres=(mask,))
        with pytest.raises(AssertionError,
                           match="point %d uncovered at level %d$" % (c, v)):
            verify_cover(broken, [vals])


@st.composite
def _cover_batches(draw):
    """1-6 sequences of mixed lengths and dims, in random order, among
    them a constant sequence and a length-1 sequence."""
    part = st.floats(-4.0, 4.0)
    seqs = [draw(_complex_rows(12, 4, part))
            for _ in range(draw(st.integers(0, 4)))]
    n, dim = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    seqs.append(np.full((n, dim), complex(draw(part), draw(part))))
    seqs.append(draw(_complex_rows(1, 4, part)))
    return draw(st.permutations(seqs))


@settings(max_examples=100)
@given(_cover_batches(), st.sampled_from([1e-6, 1e-3, 0.25]))
def test_cover_batch_matches_loop_oracle(seqs, resolution):
    wants = [_oracle_nets(vals, resolution) for vals in seqs]
    assume(None not in wants)
    cover = build_chaining_cover(seqs, resolution=resolution)
    assert len(cover.levels) == sum(w[3] - w[2] + 1 for w in wants)
    for k, want in enumerate(wants):
        assert _nets(cover, k) == want
    assert verify_cover(cover, seqs) <= 3.0
    assert chaining_telescope_check(cover, seqs) <= 1e-12
