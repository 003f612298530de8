"""r-variation, jump counting, and the chaining cover invariants."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from modvar import cli, variation
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


@pytest.mark.parametrize("r", [2.2, 2.5, 3.0, 8.0])
def test_dp_matches_brute_and_dfs(rng, r):
    for _ in range(20):
        n = int(rng.integers(2, 9))
        seq = rng.normal(size=n) + 1j * rng.normal(size=n)
        v_dp = vr_exact([seq], r)[0]
        assert v_dp == pytest.approx(vr_brute([seq], r)[0], abs=1e-10)
        assert v_dp == pytest.approx(oracles.vr_dfs(seq, r), abs=1e-10)


# parts are 0 or at least 1e-6 in size: below about 1e-154 the squares in
# np.linalg.norm underflow, which vr_exact and vr_brute use and vr_batch
# (np.abs) does not
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
    # vr_batch returns the r-th powers; the caller takes the root
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
    got = vr_batch(vals, r)
    want = np.concatenate([vr_batch(vals[:, [c]], r) for c in range(cols)])
    assert got.tobytes() == want.tobytes()


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


def test_variation_json_bytes_pinned(tmp_path):
    # the bytes that the one-sequence-per-call code of commit 0269fae wrote,
    # with numpy's AVX-512 pow and with its dispatch off (libm pow) alike
    argv = ["variation", "--set", "n_oracle=50", "--set", "n_jump=500",
            "--seed", "5", "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    digest = hashlib.sha256((tmp_path / "variation.json").read_bytes())
    assert digest.hexdigest() == ("2b03c9be42ec8d9e46335c791f69b909"
                                  "38638c96772c17b13e62d0fc8292cbc5")


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


@settings(max_examples=200)
@given(_complex_rows(24, 16, st.floats(-1e6, 1e6)))
def test_gap_matrix_rows_match_norm_bitwise(vals):
    G = _gaps(vals)
    for i in range(len(vals)):
        want = np.linalg.norm(vals[i] - vals[:i], axis=1)
        assert G[i, :i].tobytes() == want.tobytes()
    # the cover's diameter and parent links read either triangle
    assert G.tobytes() == G.T.copy().tobytes()
    assert not np.any(np.diag(G))


def test_gap_matrix_built_in_blocks_matches_norm_rows(rng):
    vals = rng.normal(size=(300, 3)) + 1j * rng.normal(size=(300, 3))
    G = _gaps(vals)   # 900 difference entries per row: several blocks
    for i in range(len(vals)):
        want = np.linalg.norm(vals[i] - vals, axis=1)
        assert G[i].tobytes() == want.tobytes()


def test_gap_matrix_refuses_overlong_sequences():
    with pytest.raises(DomainError, match="longer than"):
        jump_count(np.zeros(4097), 1.0)
    with pytest.raises(DomainError, match="longer than"):
        build_chaining_cover([np.zeros(4097)])


def _near(x, t):
    # verify_cover allows an absolute 1e-12 beyond each radius
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
