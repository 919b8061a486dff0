import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from entropix import dist
from entropix.rng import RngStream


def ref_softmax(values):
    # independent high-precision evaluation
    es = [math.exp(v) for v in values]
    s = math.fsum(es)
    return [e / s for e in es]


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(dist.softmax([0, 0, 0, 0]), [0.25] * 4)

    def test_single_support(self):
        for x in (-3.0, 0.0, 17.5):
            np.testing.assert_array_equal(
                dist.softmax([x, dist.EXCLUDED]), [1.0, 0.0])

    def test_reference_values(self):
        got = dist.softmax([1, 2, 3])
        np.testing.assert_allclose(got, ref_softmax([1, 2, 3]), atol=1e-15)
        np.testing.assert_allclose(
            got, [0.09003057, 0.24472847, 0.66524096], atol=1e-8)

    def test_excluded_exactly_zero(self):
        p = dist.softmax([1.0, dist.EXCLUDED, 2.0])
        assert p[1] == 0.0
        assert abs(p.sum() - 1.0) <= 1e-9

    def test_all_excluded_rejected(self):
        with pytest.raises(ValueError, match="empty support"):
            dist.softmax([dist.EXCLUDED, dist.EXCLUDED])

    def test_large_logits_stable(self):
        p = dist.softmax([1000.0, 1000.0, 999.0])
        assert np.all(np.isfinite(p))
        assert abs(p.sum() - 1.0) <= 1e-9


class TestEntropy:
    def test_one_hot(self):
        assert dist.entropy([1.0, 0.0, 0.0, 0.0]) == 0.0

    def test_uniform(self):
        assert dist.entropy([0.25] * 4) == pytest.approx(math.log(4), abs=1e-12)

    def test_reference_value(self):
        p = [0.5, 0.25, 0.125, 0.125]
        ref = -math.fsum(q * math.log(q) for q in p)
        assert dist.entropy(p) == pytest.approx(ref, abs=1e-15)
        assert dist.entropy(p) == pytest.approx(1.2130076, abs=1e-7)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError, match="invalid distribution"):
            dist.entropy([0.5, 0.6])
        with pytest.raises(ValueError, match="invalid distribution"):
            dist.entropy([-0.1, 1.1])

    @given(arrays(np.float64, st.integers(2, 32),
                  elements=st.floats(1e-6, 1.0)))
    def test_bounds(self, raw):
        p = raw / raw.sum()
        eps = dist.entropy(p)
        assert -1e-12 <= eps <= math.log(p.shape[0]) + 1e-12


class TestRescale:
    def test_identity(self):
        a = np.array([3.0, -1.0, 0.5])
        np.testing.assert_array_equal(dist.rescale_logits(a, 1.0), a)

    def test_division(self):
        np.testing.assert_array_equal(dist.rescale_logits([2.0, 4.0], 2.0),
                                      [1.0, 2.0])

    def test_excluded_preserved(self):
        out = dist.rescale_logits([2.0, dist.EXCLUDED], 0.5)
        assert out[1] == dist.EXCLUDED

    def test_nonpositive_temperature(self):
        for t in (0.0, -1.0):
            with pytest.raises(ValueError, match="nonpositive temperature"):
                dist.rescale_logits([1.0, 2.0], t)

    def test_argmax_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            a = rng.normal(size=rng.integers(2, 20))
            for t in (0.1, 0.5, 3.0):
                assert np.argmax(dist.softmax(dist.rescale_logits(a, t))) \
                    == np.argmax(dist.softmax(a))


class TestTopK:
    def test_basic(self):
        out = dist.top_k_filter([5.0, 1.0, 3.0], 2)
        np.testing.assert_array_equal(out, [5.0, dist.EXCLUDED, 3.0])

    def test_k_equals_v(self):
        a = np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(dist.top_k_filter(a, 3), a)
        np.testing.assert_array_equal(dist.top_k_filter(a, 10), a)

    def test_tie_break_lowest_index(self):
        out = dist.top_k_filter([2.0, 2.0, 2.0], 1)
        np.testing.assert_array_equal(out, [2.0, dist.EXCLUDED, dist.EXCLUDED])
        out = dist.top_k_filter([1.0, 2.0, 2.0, 2.0], 2)
        np.testing.assert_array_equal(
            out, [dist.EXCLUDED, 2.0, 2.0, dist.EXCLUDED])

    def test_k_below_one(self):
        with pytest.raises(ValueError):
            dist.top_k_filter([1.0, 2.0], 0)

    @given(arrays(np.float64, st.integers(2, 24),
                  elements=st.floats(-50, 50)),
           st.integers(1, 24))
    def test_idempotent(self, a, k):
        once = dist.top_k_filter(a, k)
        np.testing.assert_array_equal(dist.top_k_filter(once, k), once)


def logits_for_probs(p):
    return np.log(np.asarray(p, dtype=np.float64))


class TestTopP:
    def test_p_one_identity(self):
        a = np.array([1.0, -2.0, 0.0])
        np.testing.assert_array_equal(dist.top_p_filter(a, 1.0), a)

    def test_cut_at_mass(self):
        a = logits_for_probs([0.6, 0.3, 0.1])
        out = dist.top_p_filter(a, 0.6)
        assert np.isfinite(out[0])
        assert out[1] == dist.EXCLUDED and out[2] == dist.EXCLUDED

    def test_cut_just_past_mass(self):
        a = logits_for_probs([0.6, 0.3, 0.1])
        out = dist.top_p_filter(a, 0.61)
        assert np.isfinite(out[0]) and np.isfinite(out[1])
        assert out[2] == dist.EXCLUDED

    def test_at_least_one_kept(self):
        out = dist.top_p_filter([0.0, 0.0], 1e-12)
        assert np.isfinite(out).sum() == 1

    def test_invalid_p(self):
        for p in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                dist.top_p_filter([1.0, 2.0], p)

    @given(arrays(np.float64, st.integers(2, 24),
                  elements=st.floats(-30, 30)),
           st.floats(0.05, 1.0))
    @settings(max_examples=50)
    def test_reapplication_keeps_subset(self, a, p):
        # renormalization after the cut can only shrink the kept set, so a
        # second application never resurrects an excluded entry
        once = dist.top_p_filter(a, p)
        twice = dist.top_p_filter(once, p)
        assert np.all(np.isfinite(once) | ~np.isfinite(twice))
        assert np.isfinite(twice).sum() >= 1


class TestCfgCombine:
    def test_scale_one_identity(self):
        c = np.array([2.0, 0.0])
        np.testing.assert_array_equal(dist.cfg_combine(c, [1.0, 0.0], 1.0), c)

    def test_direct_arithmetic(self):
        np.testing.assert_array_equal(
            dist.cfg_combine([2.0, 0.0], [1.0, 0.0], 3.0), [4.0, 0.0])

    def test_fixed_point(self):
        c = np.array([1.0, -2.0, 5.0])
        for s in (1.0, 2.0, 7.5):
            np.testing.assert_allclose(dist.cfg_combine(c, c, s), c)

    def test_mismatched_sizes(self):
        with pytest.raises(ValueError):
            dist.cfg_combine([1.0, 2.0], [1.0, 2.0, 3.0], 2.0)

    def test_excluded_rejected(self):
        with pytest.raises(ValueError):
            dist.cfg_combine([1.0, dist.EXCLUDED], [0.0, 0.0], 2.0)


class TestSampleCategorical:
    def test_one_hot(self):
        rng = RngStream(0)
        p = np.array([0.0, 0.0, 1.0, 0.0])
        assert all(dist.sample_categorical(p, rng) == 2 for _ in range(50))

    def test_invalid(self):
        with pytest.raises(ValueError):
            dist.sample_categorical([0.5, 0.6], RngStream(0))

    def test_uniform_frequencies(self):
        rng = RngStream(3)
        p = np.full(8, 0.125)
        counts = np.zeros(8)
        n = 20000
        for _ in range(n):
            counts[dist.sample_categorical(p, rng)] += 1
        np.testing.assert_allclose(counts / n, p, atol=0.01)

    def test_total_variation_small_vocab(self):
        rng = RngStream(9)
        raw = RngStream(10).uniforms(16) + 0.01
        p = raw / raw.sum()
        n = 100000
        counts = np.zeros(16)
        for _ in range(n):
            counts[dist.sample_categorical(p, rng)] += 1
        tv = 0.5 * np.abs(counts / n - p).sum()
        assert tv < 0.01

    def test_golden_sequence(self):
        # frozen regression data: seed 42, probs [0.5, 0.5]
        rng = RngStream(42)
        p = np.array([0.5, 0.5])
        got = [dist.sample_categorical(p, rng) for _ in range(20)]
        assert got == [1, 1, 1, 0, 1, 0, 1, 1, 0, 0,
                       1, 0, 0, 1, 0, 0, 1, 0, 1, 1]


def reference_inverse_cdf(p, u):
    """The scalar inverse-CDF draw with its top-edge and zero-mass guards."""
    idx = int(np.searchsorted(np.cumsum(p), u, side="right"))
    idx = min(idx, p.shape[0] - 1)
    while idx > 0 and p[idx] == 0.0:
        idx -= 1
    return idx


class TestSampleRows:
    def test_matches_reference_loop(self):
        rng = np.random.default_rng(3)
        probs = dist.softmax(rng.normal(scale=3.0, size=(400, 6)))
        probs[::7, 4:] = 0.0  # trailing zero mass
        probs /= probs.sum(axis=1, keepdims=True)
        u = rng.uniform(size=400)
        u[::11] = np.nextafter(1.0, 0.0)  # the largest uniform: top edge
        expected = [reference_inverse_cdf(p, x) for p, x in zip(probs, u)]
        assert dist.sample_rows(probs, u).tolist() == expected

    def test_rows_equal_sequential_draws(self):
        # batched draws with the stream's uniforms, one per row in order,
        # give exactly the tokens of sequential sample_categorical calls
        rng = np.random.default_rng(8)
        probs = dist.softmax(rng.normal(scale=2.0, size=(300, 9)))
        probs[7] = [0.0, 0.5, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
        probs[8] = np.eye(9)[8]
        seq = RngStream(21)
        expected = [dist.sample_categorical(p, seq) for p in probs]
        got = dist.sample_rows(probs, RngStream(21).uniforms(300))
        assert got.tolist() == expected

    def test_edge_guards(self):
        # top edge: a uniform above the rounded total falls back to the last
        # entry with mass, never onto trailing zero-mass entries
        p = np.array([[0.25, 0.75 - 1e-12, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]])
        assert dist.sample_rows(p, [1.0 - 1e-15, 0.999]).tolist() == [1, 0]

    def test_validation(self):
        with pytest.raises(ValueError):
            dist.sample_rows([[0.5, 0.6]], [0.1])
        with pytest.raises(ValueError):
            dist.sample_rows([[0.5, 0.5]], [0.1, 0.2])
        with pytest.raises(ValueError):
            dist.sample_rows([0.5, 0.5], [0.1])

    def test_empty_batch(self):
        assert dist.sample_rows(np.zeros((0, 4)), []).shape == (0,)


class TestRowWisePrimitives:
    @pytest.mark.parametrize("v", [1, 2, 7, 8, 9, 64, 129, 1000])
    def test_rows_equal_single_rows(self, v):
        rng = np.random.default_rng(v)
        a = rng.normal(scale=3.0, size=(12, v))
        if v > 2:
            a[3, 1] = dist.EXCLUDED
        t = rng.uniform(0.2, 3.0, size=12)
        k = max(1, v // 2)
        for rows, single in (
                (dist.softmax(a), dist.softmax),
                (dist.top_k_filter(a, k), lambda r: dist.top_k_filter(r, k)),
                (dist.top_p_filter(a, 0.7),
                 lambda r: dist.top_p_filter(r, 0.7))):
            assert np.array_equal(rows, np.stack([single(r) for r in a]))
        assert np.array_equal(
            dist.rescale_logits(a, t),
            np.stack([dist.rescale_logits(r, x) for r, x in zip(a, t)]))
        p = dist.softmax(a)
        assert np.array_equal(dist.support_entropy(p),
                              [dist.entropy(r) for r in p])

    def test_empty_support_row_rejected(self):
        a = np.zeros((3, 4))
        a[1] = dist.EXCLUDED
        with pytest.raises(ValueError, match="empty support"):
            dist.softmax(a)

    def test_entropy_stays_one_dimensional(self):
        with pytest.raises(ValueError):
            dist.entropy(np.full((2, 2), 0.5))


class TestGumbelNoise:
    def test_analytic_point(self):
        class Fixed:
            def uniform(self):
                return 1.0 / math.e
        assert dist.gumbel_noise(Fixed()) == pytest.approx(0.0, abs=1e-15)

    def test_clamp_extremes(self):
        class Zero:
            def uniform(self):
                return 0.0
        class One:
            def uniform(self):
                return 1.0 - 1e-18
        assert np.isfinite(dist.gumbel_noise(Zero()))
        assert np.isfinite(dist.gumbel_noise(One()))

    def test_rows_equal_scalar_draws(self):
        u = RngStream(44).uniforms(500)
        u[:3] = [0.0, 1e-300, np.nextafter(1.0, 0.0)]  # both clamp edges

        class Scripted:
            def __init__(self):
                self.values = list(u)

            def uniform(self):
                return self.values.pop(0)

        rng = Scripted()
        expected = [dist.gumbel_noise(rng) for _ in range(500)]
        assert np.array_equal(dist.gumbel_rows(u), expected)

    def test_empirical_mean(self):
        rng = RngStream(12)
        n = 200000
        total = 0.0
        for _ in range(n):
            total += dist.gumbel_noise(rng)
        # Euler-Mascheroni constant; sd of the mean ~ 0.003 at this n
        assert total / n == pytest.approx(0.5772156649, abs=0.012)


def test_rescale_to_uniform_limit():
    rng = np.random.default_rng(1)
    a = rng.normal(scale=5.0, size=12)
    a[3] = dist.EXCLUDED
    p = dist.softmax(dist.rescale_logits(a, 1e6))
    support = np.isfinite(a)
    assert p[~support].sum() == 0.0
    assert np.max(np.abs(p[support] - 1.0 / support.sum())) < 1e-4
