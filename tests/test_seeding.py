import numpy as np
import pytest

from loopqc.seeding import derive_rng


def test_same_seed_same_stream_reproduces():
    a = derive_rng(99, "shots").random(16)
    b = derive_rng(99, "shots").random(16)
    assert np.array_equal(a, b)


def test_streams_are_independent():
    a = derive_rng(99, "shots").random(16)
    b = derive_rng(99, "extract").random(16)
    c = derive_rng(100, "shots").random(16)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_stream_ids_mix_types():
    a = derive_rng(5, "gates", "ns", 0).random(4)
    b = derive_rng(5, "gates", "ns", 1).random(4)
    assert not np.array_equal(a, b)


def test_seed_range_enforced():
    derive_rng(0)
    derive_rng(2**64 - 1)
    with pytest.raises(ValueError):
        derive_rng(-1)
    with pytest.raises(ValueError):
        derive_rng(2**64)


def test_draws_look_uniform():
    x = derive_rng(123, "check").random(20000)
    assert abs(x.mean() - 0.5) < 0.02
    assert abs(x.var() - 1 / 12) < 0.01


def test_integer_ids_are_canonical():
    assert derive_rng(1, 3).random() == 0.20784164733122512
    for same in (np.int64(3), np.uint8(3), np.int32(3)):
        assert derive_rng(1, same).random() == derive_rng(1, 3).random()
    assert derive_rng(1, np.str_("x"), np.int64(7)).random() == \
        derive_rng(1, "x", 7).random()
    for bad in (3.0, None, b"x", (1, 2)):
        with pytest.raises(TypeError):
            derive_rng(1, bad)
