import numpy as np
import pytest

from modvar.util import e, stream, torus_dist, torus_signed, write_csv


def test_stream_is_deterministic_and_split_by_draw():
    a = stream(7, 0).standard_normal(8)
    b = stream(7, 0).standard_normal(8)
    c = stream(7, 1).standard_normal(8)
    np.testing.assert_array_equal(a, b)
    assert not np.allclose(a, c)


def test_stream_keys_differ_above_two_to_the_63():
    # a key list of Python ints at or above 2^63 would go through float64,
    # where 2^63 and 2^63 + 1 are one number
    seeds = (2 ** 63, 2 ** 63 + 1, 2 ** 64 - 1)
    keys = {tuple(int(k) for k in stream(s, 0).bit_generator.state[
        "state"]["key"]) for s in seeds}
    assert keys == {(s, 0) for s in seeds}


def test_unit_phase_quarter_turn():
    assert e(0.25) == pytest.approx(1j, abs=1e-15)
    assert e(0.0) == 1.0
    np.testing.assert_allclose(np.abs(e(np.linspace(0, 1, 17))), 1.0,
                               atol=1e-15)


def test_torus_distance_and_signed_representative():
    assert torus_dist(0.9, 0.1) == pytest.approx(0.2)
    assert torus_signed(0.75) == pytest.approx(-0.25)
    assert torus_signed(0.25) == pytest.approx(0.25)
    assert torus_dist(1.0) == 0.0


def test_csv_bytes_are_reproducible(tmp_path):
    rows = [(1, 0.5, "x"), (2, 1.0 / 3.0, "y")]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(p1, ("i", "v", "tag"), rows)
    write_csv(p2, ("i", "v", "tag"), rows)
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_bytes().startswith(b"i,v,tag")
