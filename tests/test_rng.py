import numpy as np
import pytest

from entropix.rng import RngStream


def test_replay_identical():
    a = RngStream(123)
    b = RngStream(123)
    assert [a.uniform() for _ in range(10)] == [b.uniform() for _ in range(10)]
    np.testing.assert_array_equal(RngStream(9).uniforms(32),
                                  RngStream(9).uniforms(32))


def test_batched_uniforms_continue_the_stream():
    # decoders draw a step's uniforms in one call; that must be the same
    # sequence as one-at-a-time draws, interleaved in any way
    a = RngStream(31)
    b = RngStream(31)
    seq = [a.uniform() for _ in range(7)]
    got = list(b.uniforms(3)) + [b.uniform()] + list(b.uniforms(3))
    assert got == seq


def test_streams_independent():
    a = RngStream(5).uniforms(64)
    b = RngStream(6).uniforms(64)
    assert not np.array_equal(a, b)


def test_integer_range():
    rng = RngStream(1)
    draws = [rng.integer(6) for _ in range(200)]
    assert min(draws) >= 0 and max(draws) < 6
    assert len(set(draws)) == 6


def test_negative_seed_rejected():
    with pytest.raises(ValueError):
        RngStream(-1)
