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


# The Jacobi decoder draws a window's uniforms and its fresh drafts in one
# call each, in place of the per-slot scalar draws its goldens were
# recorded with. Both equalities are numpy behaviour, not an API promise,
# so they are pinned here on the installed numpy: an upgrade that breaks
# them fails these tests rather than moving a golden.

def test_uniforms_equal_scalar_draws_interleaved():
    a = RngStream(41)
    b = RngStream(41)
    got = [a.integer(64)] + list(a.uniforms(5)) + [a.integer(64)] \
        + list(a.uniforms(1)) + [a.uniform()] + list(a.uniforms(3))
    want = [b.integer(64)] + [b.uniform() for _ in range(5)] \
        + [b.integer(64)] + [b.uniform() for _ in range(5)]
    assert got == want


@pytest.mark.parametrize("n", [2, 64, 1000, 1 << 18])
@pytest.mark.parametrize("k", [1, 2, 5, 16])
def test_integers_equal_scalar_draws(n, k):
    for seed, lead in ((0, 0), (7, 1), (12, 3)):
        # an odd number of earlier draws leaves half a 64-bit word buffered
        a = RngStream(seed)
        b = RngStream(seed)
        assert [a.integer(n) for _ in range(lead)] \
            == [b.integer(n) for _ in range(lead)]
        got = a.integers(n, k)
        assert got.shape == (k,)
        assert got.tolist() == [b.integer(n) for _ in range(k)]
        # the stream goes on alike, for both kinds of draw
        assert a.uniform() == b.uniform()
        assert a.integer(n) == b.integer(n)
