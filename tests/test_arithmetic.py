"""Complete exponential sums, frequency enumeration, and the decay fit."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modvar import arithmetic
from modvar.arithmetic import (
    DECAY_QMAX,
    arc_pairs,
    weyl_decay_fit,
    weyl_row,
    weyl_rows,
)
from modvar.dense import weyl_sum
from modvar.util import DomainError

import oracles


def test_weyl_sum_trivial_modulus():
    assert weyl_sum(1, (1,), 1) == pytest.approx(1.0)


def test_weyl_sum_classic_gauss_q3():
    s = weyl_sum(3, (1,), 3)
    assert abs(s) == pytest.approx(3 ** -0.5, abs=1e-12)


def test_weyl_sum_even_modulus_full_weight():
    # Q=2: r*B + r^2 is always even, so every phase vanishes
    assert weyl_sum(2, (1,), 1) == pytest.approx(1.0, abs=1e-15)


def test_weyl_sum_q4_half_weight():
    s = weyl_sum(4, (1,), 4)
    assert s == pytest.approx(0.5 - 0.5j, abs=1e-12)
    assert abs(s) == pytest.approx(2 ** -0.5, abs=1e-12)


@pytest.mark.parametrize("Q,A,B,d", [
    (5, (2,), 3, 2),
    (7, (3, 1), 4, 3),
    (12, (5,), 7, 2),
    (9, (2, 4, 1), 5, 4),
])
def test_weyl_sum_matches_direct_oracle(Q, A, B, d):
    got = weyl_sum(Q, A, B)
    want = oracles.weyl_direct(Q, A, B, d)
    assert got == pytest.approx(want, abs=1e-12)


def test_weyl_row_matches_columnwise_sums():
    Q, A = 11, (4, 2)
    row = weyl_row(Q, A)
    for i, B in enumerate(range(1, Q + 1)):
        assert row[i] == pytest.approx(weyl_sum(Q, A, B), abs=1e-12)


@settings(max_examples=40)
@given(st.integers(1, 40), st.integers(1, 3), st.data())
def test_weyl_rows_match_single_rows_and_direct_sums(Q, m, data):
    coeff = st.integers(-3 * Q, 3 * Q)
    As = data.draw(st.lists(st.tuples(*[coeff] * m), min_size=1, max_size=6))
    rows = weyl_rows(Q, As)
    assert rows.shape == (len(As), Q)
    for A, row in zip(As, rows):
        assert row.tobytes() == weyl_row(Q, A).tobytes()
        B = data.draw(st.integers(1, Q))
        assert abs(row[B - 1] - oracles.weyl_direct(Q, A, B, m + 1)) <= 1e-12


@pytest.mark.parametrize("Q", [1, 2, 3, 12, 64])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_weyl_rows_take_an_int_array_or_tuples(Q, m):
    # one set of bytes for a (k, m) int array, a list of tuples and one
    # weyl_row per vector, with coefficients beyond [0, Q) reduced mod Q
    As = np.random.default_rng(Q * m).integers(-3 * Q, 3 * Q + 1, (9, m))
    rows = weyl_rows(Q, As)
    assert rows.shape == (9, Q)
    assert rows.tobytes() == weyl_rows(Q, [tuple(A) for A in As.tolist()]
                                       ).tobytes()
    assert rows.tobytes() == np.array([weyl_row(Q, A) for A in As]).tobytes()


def test_weyl_rows_refuses_mixed_degrees():
    with pytest.raises(DomainError):
        weyl_rows(5, [(1,), (1, 2)])


@pytest.mark.parametrize("block", [arithmetic.ROW_BLOCK, 7])
@pytest.mark.parametrize("d,Qmax", [(2, 12), (3, 8), (2, 30), (3, 16)])
def test_decay_fit_matches_per_row_loop(d, Qmax, block, monkeypatch):
    # the int-array enumeration, the gcd table and the blocks (7: many per
    # Q) keep every field of the row-by-row loop, the tie-break included
    monkeypatch.setattr(arithmetic, "ROW_BLOCK", block)
    fit = weyl_decay_fit(d, Qmax)
    assert dataclasses.asdict(fit) == oracles.weyl_decay_loops(d, Qmax,
                                                               weyl_row)


def test_weyl_sum_reduces_components():
    # A and B are read mod Q: (0, -1) and 13 are (6, 5) and 1 mod 6
    assert weyl_sum(6, (0, -1), 13) == weyl_sum(6, (6, 5), 1)
    assert weyl_sum(6, (0, -1), 13) == weyl_sum(6, (0, 5), 7)


def test_freq_point_coprimality_flags():
    # the two conventions on a frequency point (Q, A, B) of reduced
    # components: the arc condition gcd(A, Q) = 1 leaves B out, the joint
    # one gcd(A, B, Q) = 1 takes it in
    def joint(Q, A, B):
        return math.gcd(*A, B, Q) == 1

    def arc(Q, A, B):
        return math.gcd(*A, Q) == 1

    assert joint(6, (2,), 3)
    assert not joint(6, (2,), 4)
    assert arc(6, (5,), 4)
    assert not arc(6, (3,), 1)
    assert joint(6, (3,), 1) and not arc(6, (3,), 1)


def test_weyl_sum_rejects_bad_modulus():
    with pytest.raises(DomainError):
        weyl_sum(0, (1,), 1)


@pytest.mark.parametrize("Q", [0, -3])
def test_weyl_rows_rejects_bad_modulus(Q):
    with pytest.raises(DomainError, match="modulus Q must be positive"):
        weyl_row(Q, (1,))
    with pytest.raises(DomainError, match="modulus Q must be positive"):
        weyl_rows(Q, [(1,), (2,)])


# coefficients that are not k vectors of one length m: a scalar A, no
# vectors, one flat vector, a 3-d array, and a ragged list
@pytest.mark.parametrize("call,message", [
    (lambda: weyl_row(5, 2), "k vectors of one length m"),
    (lambda: weyl_rows(5, []), "k vectors of one length m"),
    (lambda: weyl_rows(5, [1, 2]), "k vectors of one length m"),
    (lambda: weyl_rows(5, np.ones((2, 2, 1), dtype=int)),
     "k vectors of one length m"),
    (lambda: weyl_rows(5, [(1,), (1, 2)]), "the same length"),
])
def test_weyl_rows_rejects_coefficients_not_two_dimensional(call, message):
    with pytest.raises(DomainError, match=message):
        call()


def _freq_points(s, d):
    # the arc sums visit every B = 1..Q of every arc (A, Q)
    return [(Q, A, B) for A, Q in arc_pairs(s, d) for B in range(1, Q + 1)]


def test_enumerate_level_one_single_point():
    assert arc_pairs(1, 2) == [((1,), 1)]
    assert _freq_points(1, 2) == [(1, (1,), 1)]


def test_enumerate_level_two_degree_two():
    pts = _freq_points(2, 2)
    assert len(pts) == 8
    # Q=2 admits only A=(1,); Q=3 admits A=(1,) and A=(2,)
    assert {(Q, A) for Q, A, _B in pts} == {(2, (1,)), (3, (1,)), (3, (2,))}
    for Q, A, _B in pts:
        assert math.gcd(*A, Q) == 1


def test_arc_pairs_level_two():
    pairs = list(arc_pairs(2, 2))
    assert len(pairs) == 3
    assert {(A, Q) for A, Q in pairs} == {((1,), 2), ((1,), 3), ((2,), 3)}


@pytest.mark.parametrize("s,d", [(1, 2), (2, 2), (3, 2), (2, 3), (3, 3)])
def test_count_matches_enumeration(s, d):
    # inclusion-exclusion count of the frequency points of level s
    want = sum(Q * oracles.coprime_vector_count(Q, d - 1)
               for Q in range(2 ** (s - 1), 2 ** s))
    assert len(_freq_points(s, d)) == want


@pytest.mark.parametrize("Q,m", [(2, 1), (6, 1), (6, 2), (12, 2), (30, 3)])
def test_coprime_vector_totals(Q, m):
    # inclusion-exclusion over squarefree divisors matches the enumeration
    pairs = [A for A in _coprime(Q, m)]
    assert len(pairs) == oracles.coprime_vector_count(Q, m)


def _coprime(Q, m):
    from modvar.arithmetic import _coprime_vectors
    return _coprime_vectors(Q, m)


def test_decay_fit_degree_two_slope():
    fit = weyl_decay_fit(2, 40)
    assert fit.exponent == pytest.approx(0.5, abs=0.05)
    assert fit.Q == tuple(range(1, 41))
    assert fit.max_abs[0] == pytest.approx(1.0)
    # the fitted constant dominates every sample by construction
    for q, m in zip(fit.Q, fit.max_abs):
        assert m * q ** fit.exponent <= fit.constant + 1e-12


def test_decay_fit_rejects_out_of_range():
    with pytest.raises(DomainError):
        weyl_decay_fit(4, 10)
    with pytest.raises(DomainError):
        weyl_decay_fit(2, DECAY_QMAX[2] + 1)
    with pytest.raises(DomainError):
        weyl_decay_fit(2, 1)
