"""Arc multipliers, maximal/variation operators, and their guard rails."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modvar import arithmetic, dense, harness, multipliers, polykit, variation
from modvar.bumpkit import (DEFAULT_A0, ChiCutoff, SmoothBump, make_Psi,
                            psi_floor_index)
from modvar.multipliers import (
    MIN_MODULUS,
    ShiftedStack,
    SupportStack,
    arc_indicator_radius,
    arc_symbol,
    arc_symbols,
    build_arc_multiplier,
    kernel_gate,
    kernel_transforms,
    lambda_grid_for,
    maximal_arc_ratio,
    seqspace_freqs,
    seqspace_level,
    seqspace_ratio,
    snap_to_grid,
    vr_sup,
    vrd_operator,
)
from modvar.signalkit import CyclicSignal, Signal
from modvar.util import DomainError, GridTooCoarseError, e, torus_signed

import oracles

BUMP = SmoothBump(0.25)


def _dense(stack):
    """A SupportStack scattered into zeros: its dense anchored (J - 1, M)
    array."""
    out = np.zeros((len(stack.values), stack.modulus), dtype=complex)
    out[:, stack.support] = stack.values
    return out


def _anchored(rows):
    """Rows 1.. of a (J, M) stack minus its row 0."""
    return rows[1:] - rows[0]


def test_maximal_arc_ratio_zero_signal():
    f = CyclicSignal(np.zeros(256, dtype=complex))
    assert maximal_arc_ratio(arc_symbols(1, 256), f) == 0.0


def test_maximal_arc_ratio_checks_the_grid_before_the_norm():
    # a zero signal on the wrong modulus is refused like a nonzero one
    symbols = arc_symbols(1, 256)
    for vals in (np.zeros(128, dtype=complex), np.ones(128, dtype=complex)):
        with pytest.raises(DomainError, match="symbol grid"):
            maximal_arc_ratio(symbols, CyclicSignal(vals))


def test_maximal_arc_ratio_point_mass_near_one():
    vals = np.zeros(512, dtype=complex)
    vals[0] = 1.0
    ratio = maximal_arc_ratio(arc_symbols(1, 512), CyclicSignal(vals))
    assert ratio <= 1.0 + 1e-12
    assert ratio > 0.9


def test_maximal_arc_ratio_level_one_is_plain_window():
    # level 1 has the single arc at frequency 0 with unit weight, so the
    # operator reduces to the chi window filter
    rng = np.random.default_rng(7)
    f = CyclicSignal(rng.normal(size=512) + 1j * rng.normal(size=512))
    chi = ChiCutoff(1)
    fhat = np.fft.fft(f.values)
    g = np.fft.ifft(chi(np.arange(512) / 512) * fhat)
    want = float(np.linalg.norm(np.abs(g)) / f.l2())
    assert maximal_arc_ratio(arc_symbols(1, 512), f) == pytest.approx(
        want, abs=1e-12)


def test_maximal_arc_ratio_tone_outside_all_windows():
    # narrow windows (radius 1/16) around {0, 1/3, 1/2, 2/3}; a tone at
    # 5/6 sits farther than 2 * radius from each, so the output vanishes
    M = 4096
    b = round(5 * M / 6)
    f = CyclicSignal(e(np.arange(M) * b / M))
    assert maximal_arc_ratio(arc_symbols(2, M, chi_a0=0.1), f) < 1e-10


def test_maximal_arc_ratio_rejects_bad_level():
    with pytest.raises(DomainError):
        arc_symbols(0, 64)
    with pytest.raises(DomainError):
        arc_symbols(5, 64)
    with pytest.raises(DomainError):       # symbols built for another grid
        maximal_arc_ratio(arc_symbols(1, 128),
                          CyclicSignal(np.ones(64, dtype=complex)))


def test_seqspace_freqs_level_two():
    assert seqspace_freqs(2) == (Fraction(0), Fraction(1, 3), Fraction(1, 2),
                                 Fraction(2, 3))


def test_seqspace_ratio_zero_coefficients():
    assert seqspace_ratio(seqspace_level(2, 64), np.zeros(4)) == 0.0


def test_seqspace_ratio_level_one_unit():
    # single frequency 0 with weight S = 1: the map is the constant 1
    assert seqspace_ratio(seqspace_level(1, 16), [1.0]) == pytest.approx(
        1.0, abs=1e-12)


def test_seqspace_ratio_half_frequency_full_weight():
    # B/Q = 1/2 carries |S(1,1;2)| = 1, so a pure coefficient there attains 1
    c = [0.0, 0.0, 1.0, 0.0]
    assert seqspace_ratio(seqspace_level(2, 64), c) == pytest.approx(
        1.0, abs=1e-12)


def test_seqspace_ratio_validates_input():
    with pytest.raises(DomainError):                # wrong length
        seqspace_ratio(seqspace_level(1, 16), [1.0, 0.0])
    with pytest.raises(DomainError):                # interval too short
        seqspace_level(1, 1)
    for s in (0, 5):
        with pytest.raises(DomainError):
            seqspace_level(s, 64)


def test_snap_accepts_fine_grid():
    b0, off = snap_to_grid(6720, 5, 7, 0.01)
    assert b0 == 4800
    assert off == 0.0


def test_snap_rejects_coarse_grid():
    with pytest.raises(GridTooCoarseError):
        snap_to_grid(64, 1, 13, 0.001)


def test_kernel_gate_open_at_zero_offset():
    assert kernel_gate((0.0,), 5)
    assert kernel_gate((0.0, 0.0), 50)


def test_kernel_gate_closes_on_large_offset():
    assert not kernel_gate((0.25,), 30)


def test_lambda_grid_counts():
    assert len(lambda_grid_for(1, 2)) == 3
    assert len(lambda_grid_for(2, 2)) == 9
    half = arc_indicator_radius(1) / 2
    pts = lambda_grid_for(1, 2)
    assert sorted(p[0] for p in pts) == pytest.approx(
        sorted([(0 - half) % 1, 0.0, half]), abs=1e-18)


def test_build_arc_multiplier_guards():
    with pytest.raises(DomainError):
        build_arc_multiplier(0, [5], [(0.0,)], MIN_MODULUS, BUMP)
    j0 = psi_floor_index(1)
    with pytest.raises(DomainError):
        build_arc_multiplier(1, [j0 - 1], [(0.0,)], MIN_MODULUS, BUMP)


def test_arc_multiplier_apply_parseval():
    rng = np.random.default_rng(11)
    j0 = psi_floor_index(1)
    # the one anchored row: the multiplier at j0 + 2 minus the one at j0
    stacks = build_arc_multiplier(1, [j0, j0 + 2], [(0.0,)], 512, BUMP)
    mult = _dense(stacks[0])[0]
    f = CyclicSignal(rng.normal(size=512) + 1j * rng.normal(size=512))
    g = CyclicSignal(np.fft.ifft(mult * np.fft.fft(f.values)))
    assert g.l2() <= np.max(np.abs(mult)) * f.l2() * (1 + 1e-12)
    # both stack forms refuse a signal on another grid
    for stack in (ShiftedStack(mult[None, :], 0), stacks[0]):
        with pytest.raises(DomainError):
            vr_sup([stack], CyclicSignal(np.ones(256, dtype=complex)), 2.5)


@pytest.mark.parametrize("shift", [0, 700, 1023])
def test_shifted_stack_is_the_rolled_stack_bit_for_bit(shift):
    # a ShiftedStack applies like np.roll(values, -shift, axis=1) applied
    # whole below a zero row: the same products, inverse FFTs and DP, so
    # the same bytes
    rng = np.random.default_rng(shift)
    rows = rng.normal(size=(5, 1024)) + 1j * rng.normal(size=(5, 1024))
    values = _anchored(rows)
    f = CyclicSignal(rng.normal(size=1024) + 1j * rng.normal(size=1024))
    rolled = np.roll(values, -shift, axis=1) * np.fft.fft(f.values)
    spec = np.zeros_like(rows)
    spec[1:] = np.fft.ifft(rolled, axis=1)
    want = variation.vr_batch(spec, 3.0) ** (1.0 / 3.0)
    got = vr_sup([ShiftedStack(values, shift)], f, 3.0)
    assert got.tobytes() == want.tobytes()


@st.composite
def _anchored_stack(draw, M, rows=None):
    """A random stack of rows on Z/M in anchored form, a SupportStack on a
    random support or a ShiftedStack at a random shift, with its dense
    un-anchored (rows, M) array as vr_sup reads it (the shift applied)."""
    rows = draw(st.integers(1, 6)) if rows is None else rows
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    full = rng.normal(size=(rows, M)) + 1j * rng.normal(size=(rows, M))
    if draw(st.booleans()):
        support = np.array(sorted(draw(st.sets(st.integers(0, M - 1)))),
                           dtype=int)
        held = np.zeros_like(full)
        held[:, support] = full[:, support]
        return SupportStack(M, support, _anchored(full)[:, support]), held
    shift = draw(st.integers(0, 2 * M))
    return (ShiftedStack(_anchored(full), shift),
            np.roll(full, -shift, axis=1))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_vr_sup_on_anchored_stacks_matches_the_exact_oracle(data):
    # vr_sup on the anchored stacks against the max over the stacks of
    # vr_exact on the columns of the un-anchored np.fft.ifft(S * fhat); a
    # one-row stack has no anchored rows and variation exactly 0
    M = data.draw(st.integers(16, 64))
    r = data.draw(st.floats(1.0, 8.0, exclude_min=True))
    one_row = data.draw(_anchored_stack(M, rows=1))
    drawn = data.draw(st.lists(_anchored_stack(M), min_size=1, max_size=4))
    cases = drawn + [one_row]
    rng = np.random.default_rng(M)
    f = CyclicSignal(rng.normal(size=M) + 1j * rng.normal(size=M))
    fhat = np.fft.fft(f.values)
    want = np.zeros(M)
    for _stack, held in cases:
        cols = np.fft.ifft(held * fhat, axis=1)
        np.maximum(want, variation.vr_exact(list(cols.T), r), out=want)
    got = vr_sup([stack for stack, _held in cases], f, r)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
    assert not vr_sup([one_row[0]], f, r).any()


def test_build_arc_multiplier_far_lambda_is_zero():
    j0 = psi_floor_index(1)
    stack = build_arc_multiplier(1, [j0 + 1, j0 + 2], [(0.5,)], 512, BUMP)[0]
    assert len(stack.support) == 0          # no arc in the ball
    assert np.max(np.abs(_dense(stack))) == 0.0


@settings(max_examples=40)
@given(st.data())
def test_arc_symbol_matches_dense_oracle(data):
    # production symbols (snapped grid, chi table, FFT kernel, batched Weyl
    # rows) against the dense direct-summation oracle, on arc and off it
    s = data.draw(st.sampled_from((1, 2)))
    M = data.draw(st.sampled_from((240, 360)))
    j0 = psi_floor_index(s)
    J = data.draw(st.integers(j0, j0 + 3))
    lambda_vec = data.draw(st.one_of(
        st.sampled_from(lambda_grid_for(s, 2)),
        st.tuples(st.floats(0.0, 1.0, exclude_max=True))))
    got = _dense(build_arc_multiplier(s, [J, J + 1], [lambda_vec], M,
                                      BUMP)[0])
    want = _anchored(np.array([dense.arc_multiplier(s, K, lambda_vec, BUMP,
                                                    1.5, M)
                               for K in (J, J + 1)]))
    assert np.max(np.abs(got - want)) <= 1e-8


@pytest.mark.parametrize("s", range(1, multipliers.S_CAP + 1))
def test_grid_points_3k_plus_1_are_the_arc_centres(s):
    # the vr-sd sweep reads its vr-s table off the stacks at the grid's
    # points 3k+1: they must be the arc centres A/Q, and the stacks built
    # there with the whole grid must be those built at (A/Q,) alone
    centres = [(A[0] / Q % 1.0,) for A, Q in arithmetic.arc_pairs(s, 2)]
    grid = lambda_grid_for(s, 2)
    assert grid[1::3] == centres
    # the sweep's default scales and probe window, and the default window
    J_list = harness.SCHEMAS["sweep"]["J_list"][1]
    rho0 = harness.SCHEMAS["sweep"]["rho0"][1]
    probe = harness._chi_a0_for_radius(s, rho0 * 0.25 ** (s - 1))
    for M, window in ((4096, {"chi_a0": probe}), (240, {})):
        got = build_arc_multiplier(s, J_list, grid, M, BUMP, **window)[1::3]
        want = build_arc_multiplier(s, J_list, centres, M, BUMP, **window)
        assert len(got) == len(want)
        assert all(np.array_equal(_dense(g), _dense(w))
                   for g, w in zip(got, want))


def _dense_layout(s, J_list, grid, M, chi_a0):
    # the stacks as dense anchored (J - 1, M) arrays, each row of the
    # (J, M) stack summed from full-grid arc_symbol calls over the arcs in
    # the lambda ball
    chi = ChiCutoff(s, a0=chi_a0)
    khats = {}
    out = []
    for lv in grid:
        stack = np.zeros((len(J_list), M), dtype=complex)
        for A, Q in arithmetic.arc_pairs(s, 2):
            offs = (float(torus_signed(lv[0] - A[0] / Q)),)
            if abs(offs[0]) > arc_indicator_radius(s):
                continue
            for j, J in enumerate(J_list):
                if (J, offs) not in khats:
                    khats[J, offs] = multipliers._kernel_hat(
                        BUMP, 1.5, J, s, offs, M)
                if khats[J, offs] is not None:
                    stack[j] += arc_symbol(A, Q, M, chi, khats[J, offs])
        out.append(_anchored(stack))
    return out


# the sweep's probe window at M = 4096 and the default window at M = 240 at
# every level, and a wide window at s = 1 that wraps round Z/M
@pytest.mark.parametrize("s,M,window", [
    (s, M, window) for s in range(1, multipliers.S_CAP + 1)
    for M, window in ((4096, "probe"), (240, "default"))] + [(1, 4096, "wide")])
def test_support_stacks_are_the_dense_stacks_bit_for_bit(s, M, window):
    J_list = harness.SCHEMAS["sweep"]["J_list"][1]
    rho0 = harness.SCHEMAS["sweep"]["rho0"][1]
    chi_a0 = {"probe": harness._chi_a0_for_radius(s, rho0 * 0.25 ** (s - 1)),
              "default": DEFAULT_A0,
              "wide": harness._chi_a0_for_radius(s, 0.45)}[window]
    grid = lambda_grid_for(s, 2)
    got = build_arc_multiplier(s, J_list, grid, M, BUMP, chi_a0=chi_a0)
    want = _dense_layout(s, J_list, grid, M, chi_a0)
    assert len(got) == len(want)
    for stack, dense_stack in zip(got, want):
        support = stack.support
        assert stack.modulus == M
        assert np.all(np.diff(support) > 0)
        assert stack.values.shape == (len(J_list) - 1, len(support))
        assert _dense(stack).tobytes() == dense_stack.tobytes()
        off = np.ones(M, dtype=bool)
        off[support] = False
        assert not dense_stack[:, off].any()
    if s == 1:
        # the one level-1 window sits at b0 = 0: it wraps round Z/M
        assert support[0] == 0 and support[-1] == M - 1


def test_vr_sd_level_4_stacks_hold_a_fifth_of_the_dense_bytes():
    cfg = harness.parse_config("", kind="sweep",
                               overrides={"operator": "vr-sd"}).params
    s, M = 4, cfg["M"]
    probe = harness._chi_a0_for_radius(s, cfg["rho0"] * 0.25 ** (s - 1))
    stacks = build_arc_multiplier(s, cfg["J_list"], lambda_grid_for(s, 2), M,
                                  BUMP, chi_a0=probe)
    held = sum(st.support.nbytes + st.values.nbytes for st in stacks)
    dense_bytes = len(stacks) * len(cfg["J_list"]) * M * 16
    assert held <= dense_bytes / 5


def test_vr_s_operator_trivial_cases():
    # vr-s: the stacks at the arc centres A/Q
    rng = np.random.default_rng(3)
    j0 = psi_floor_index(1)
    centres = lambda_grid_for(1, 2)[1::3]
    f = CyclicSignal(rng.normal(size=256) + 0j)
    single = vr_sup(build_arc_multiplier(1, [j0], centres, 256, BUMP),
                    f, 2.5)
    assert np.max(single) == 0.0              # one scale has no variation
    zero = vr_sup(build_arc_multiplier(1, [j0, j0 + 1], centres, 256, BUMP),
                  CyclicSignal(np.zeros(256, dtype=complex)), 2.5)
    assert np.max(zero) == 0.0
    for s, J_list in ((1, [j0 + 1, j0]), (1, [j0 - 1, j0]), (1, []),
                      (0, [j0, j0 + 1]), (5, [j0, j0 + 1])):
        with pytest.raises(DomainError):
            build_arc_multiplier(s, J_list, [(0.0,)], 256, BUMP)


def test_vr_sd_operator_far_grid_vanishes():
    rng = np.random.default_rng(5)
    f = CyclicSignal(rng.normal(size=512) + 0j)
    j0 = psi_floor_index(1)
    far = build_arc_multiplier(1, [j0, j0 + 1, j0 + 2], [(0.5,)], 512, BUMP)
    assert np.max(vr_sup(far, f, 2.5)) == 0.0
    empty = build_arc_multiplier(1, [j0, j0 + 1], [], 512, BUMP)
    assert empty == []
    assert np.max(vr_sup(empty, f, 2.5)) == 0.0


def test_level_build_makes_one_chi_table_and_one_kernel_per_key(monkeypatch):
    # one build per level: the chi table is evaluated once and each distinct
    # (J, offsets) gets one kernel transform, however many lambda points
    # and arcs share it; on lambda_grid_for the offsets are {-h, 0, +h}
    chi_calls, khat_keys = [], []
    chi_call = ChiCutoff.__call__
    kernel_hat = multipliers._kernel_hat

    def counted_chi(self, beta):
        chi_calls.append(self.s)
        return chi_call(self, beta)

    def counted_khat(bump, lam, J, s, mu, M):
        khat_keys.append((J, mu))
        return kernel_hat(bump, lam, J, s, mu, M)

    monkeypatch.setattr(ChiCutoff, "__call__", counted_chi)
    monkeypatch.setattr(multipliers, "_kernel_hat", counted_khat)
    j0 = psi_floor_index(2)
    J_list = [j0, j0 + 1, j0 + 2]
    grid = lambda_grid_for(2, 2)
    stacks = build_arc_multiplier(2, J_list, grid, 240, BUMP)
    assert len(stacks) == len(grid) == 9
    assert chi_calls == [2]
    assert len(khat_keys) == len(set(khat_keys)) == 3 * len(J_list)


# kernels that wrap round Z/M from below and from above, one that fills it
@pytest.mark.parametrize("n0,length", [(-3, 10), (12, 10), (5, 16), (0, 1)])
def test_kernel_transforms_match_the_dense_dft(n0, length):
    M = 16
    rng = np.random.default_rng(length + abs(n0))
    kernels = [(n0, rng.normal(size=length) + 1j * rng.normal(size=length)),
               (0, rng.normal(size=3))]
    got = kernel_transforms(kernels, M)
    assert got.shape == (2, M)
    for row, (k0, vals) in zip(got, kernels):
        np.testing.assert_allclose(row, dense.dft_column(vals, k0, M),
                                   rtol=0, atol=1e-12)
    assert not got.flags.writeable
    with pytest.raises(ValueError):
        got[0, 0] = 0.0


def test_kernel_transforms_refuse_a_kernel_longer_than_the_grid():
    with pytest.raises(DomainError, match="exceeds the grid modulus 16"):
        kernel_transforms([(0, np.ones(16)), (-2, np.ones(17))], 16)


def test_vrd_operator_guards_and_single_scale():
    f = Signal(0, np.ones(8, dtype=complex))
    out = vrd_operator(f, BUMP, 1.5, [], [3], 2.5)
    assert np.max(out.values) == 0.0
    with pytest.raises(DomainError):
        vrd_operator(f, BUMP, 1.5, [], [], 2.5)
    with pytest.raises(DomainError):
        vrd_operator(f, BUMP, 1.5, [], [3, 2], 2.5)


def test_vrd_operator_matches_dfs_oracle():
    rng = np.random.default_rng(17)
    f = Signal(0, rng.normal(size=6) + 1j * rng.normal(size=6))
    k_list = [1, 2, 3, 4]
    r = 2.5
    out = vrd_operator(f, BUMP, 1.5, [], k_list, r)
    # rebuild the per-scale convolutions independently and take the exact
    # variation by exhaustive search at a few output positions
    kers = {k: make_Psi(BUMP, 1.5, k).at_integers() for k in k_list}
    for x in [out.support_start, 0, 2, 5, out.support_start + len(out) - 1]:
        seq = []
        for k in k_list:
            n0, vals = kers[k]
            tot = 0.0 + 0.0j
            for i, kv in enumerate(vals):
                n = n0 + i
                if 0 <= x - n < len(f):
                    tot += kv * f.values[x - n]
            seq.append(tot)
        want = oracles.vr_dfs(seq, r)
        got = out.values[x - out.support_start]
        assert got == pytest.approx(want, abs=1e-10)


def test_vrd_operator_with_polynomials_matches_nested_loops():
    # a linear and a vanish2 phase and a signal off the origin: the output
    # sits on the full convolution support against the longest kernel
    rng = np.random.default_rng(23)
    f = Signal(-4, rng.normal(size=9) + 1j * rng.normal(size=9))
    grid = [polykit.Poly.linear(0.1), polykit.Poly.vanish2((0.3,))]
    k_list = [1, 2, 3]
    out = vrd_operator(f, BUMP, 1.5, grid, k_list, 2.5)
    n0, longest = make_Psi(BUMP, 1.5, k_list[-1]).at_integers()
    assert out.support_start == f.support_start + n0
    assert len(out) == len(f) + len(longest) - 1
    want = dense.vrd(f, BUMP, 1.5, grid, k_list, 2.5,
                     range(out.support_start, out.support_start + len(out)))
    np.testing.assert_allclose(out.values, want, rtol=0, atol=1e-12)
