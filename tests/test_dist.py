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

    @given(arrays(np.float64, st.integers(1, 70),
                  elements=st.sampled_from([0.0, 1e-300]) | st.floats(
                      1e-6, 1.0)))
    def test_sum_over_the_support(self, raw):
        # bit for bit the sum over the positive entries, whether or not
        # any entry is zero
        p = raw / raw.sum() if raw.sum() > 0 else raw
        nz = p[p > 0.0]
        want = -(nz * np.log(nz)).sum()
        got = dist.support_entropy(p)
        assert np.array_equal(np.float64(got).view(np.int64),
                              np.float64(want).view(np.int64))

    @given(arrays(np.float64, st.integers(2, 32),
                  elements=st.floats(1e-6, 1.0)))
    def test_bounds(self, raw):
        p = raw / raw.sum()
        eps = dist.entropy(p)
        assert -1e-12 <= eps <= math.log(p.shape[0]) + 1e-12


class TestNaNRejected:
    """A NaN fails every comparison, so each guard is written to fail it."""

    def test_validate_probs(self):
        for p in ([np.nan, 1.0], [1.0, np.nan], [np.nan]):
            with pytest.raises(ValueError, match="invalid distribution"):
                dist.validate_probs(p)

    def test_entropy(self):
        with pytest.raises(ValueError, match="invalid distribution"):
            dist.entropy([np.nan, 1.0])

    def test_sample_rows(self):
        for p in ([[np.nan, 1.0]], [[0.5, 0.5], [1.0, np.nan]]):
            with pytest.raises(ValueError, match="invalid distribution"):
                dist.sample_rows(p, [0.5] * len(p))

    def test_rescale_logits(self):
        with pytest.raises(ValueError, match="nonpositive temperature"):
            dist.rescale_logits([1.0, 2.0], np.nan)
        with pytest.raises(ValueError, match="nonpositive temperature"):
            dist.rescale_logits(np.ones((2, 2)), np.array([1.0, np.nan]))


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
        # per row of a stack, next to a row without ties
        out = dist.top_k_filter([[1.0, 2.0, 2.0, 2.0], [4.0, 1.0, 3.0, 2.0]],
                                2)
        np.testing.assert_array_equal(
            out, [[dist.EXCLUDED, 2.0, 2.0, dist.EXCLUDED],
                  [4.0, dist.EXCLUDED, 3.0, dist.EXCLUDED]])

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


def ref_keep(a, order, n_keep):
    rank = order.argsort(axis=-1)  # inverse permutation: each entry's rank
    return np.where(rank < n_keep, a, dist.EXCLUDED)


def ref_top_k(logits, k):
    """Top-k by a stable ranking and its inverse: two argsorts per row."""
    a = dist.as_logits(logits)
    if k >= a.shape[-1]:
        return a.copy()
    return ref_keep(a, (-a).argsort(axis=-1, kind="stable"), k)


def ref_top_p(logits, p):
    """Top-p by a stable ranking of the probabilities and its inverse."""
    a = dist.as_logits(logits)
    if p == 1.0:
        return a.copy()
    neg = -dist.softmax(a)
    order = neg.argsort(axis=-1, kind="stable")
    neg.sort(axis=-1)
    cut = np.add.reduce(neg.cumsum(axis=-1) > -p, axis=-1,
                        keepdims=a.ndim > 1) + 1
    return ref_keep(a, order, cut)


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@st.composite
def logit_inputs(draw):
    """1-D vectors and [N, V] stacks (N may be 0) with heavy ties, signed
    zeros and excluded entries; every row keeps one finite entry."""
    v = draw(st.integers(1, 12))
    shape = draw(st.sampled_from([(v,), (draw(st.integers(0, 6)), v)]))
    a = draw(arrays(np.float64, shape, elements=st.one_of(
        st.integers(-3, 3).map(float), st.floats(-50, 50),
        st.sampled_from([-0.0, dist.EXCLUDED]))))
    if draw(st.booleans()):
        a = np.round(a)
    return np.where(np.isfinite(a).any(axis=-1, keepdims=True), a, 0.0)


class TestFiltersMatchStableRanking:
    """The threshold filters against the two-argsort ranking, bit for bit."""

    @given(logit_inputs(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_top_k(self, a, data):
        k = data.draw(st.integers(1, a.shape[-1] + 1))
        assert_same_bits(dist.top_k_filter(a, k), ref_top_k(a, k))

    @given(logit_inputs(), st.one_of(
        st.floats(1e-12, 1.0),
        st.sampled_from([1e-12, np.nextafter(1.0, 0.0), 1.0])))
    @settings(max_examples=200, deadline=None)
    def test_top_p(self, a, p):
        assert_same_bits(dist.top_p_filter(a, p), ref_top_p(a, p))

    def test_empty_batch(self):
        a = np.zeros((0, 5))
        assert dist.top_k_filter(a, 2).shape == (0, 5)
        assert dist.top_p_filter(a, 0.5).shape == (0, 5)


def plain_softmax(a):
    """The stack softmax with np.exp on every lane, slow ones included."""
    m = np.maximum.reduce(a, axis=-1, keepdims=True)
    e = np.exp(a - m)
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


# shifted logits in every band np.exp meets: normal results, the fast
# floor and its neighbours, the subnormal band, the last inputs that round
# above 0, exact 0 and -inf
EXP_BANDS = [0.0, -1.0, -699.9, -700.0, -700.1, -707.5, -708.4, -709.0,
             -720.0, -744.44, -745.1, -745.1332191019411, -745.1332191019412,
             -745.14, -745.9, -746.0, -746.1, -800.0, -1e300, -np.inf]


@st.composite
def shifted_stacks(draw):
    """[N, V] stacks whose rows mix every band of EXP_BANDS after the row
    max is subtracted; each row has a finite maximum."""
    n, v = draw(st.integers(1, 5)), draw(st.integers(1, 40))
    lanes = draw(arrays(np.float64, (n, v), elements=st.one_of(
        st.floats(-760.0, 0.0), st.floats(-746.0, -700.0),
        st.floats(-1e4, 0.0), st.sampled_from(EXP_BANDS))))
    lanes[:, draw(st.integers(0, v - 1))] = 0.0
    offsets = draw(arrays(np.float64, (n, 1), elements=st.floats(-50, 50)))
    return lanes + offsets


class TestStackSoftmaxLanes:
    """The fast-lane exponentiation of a stack against plain np.exp."""

    def test_every_band_exact(self):
        x = np.array([EXP_BANDS + [np.nan], EXP_BANDS[::-1] + [-710.0]])
        got = x.copy()
        dist._exp_stack(got)
        assert_same_bits(got, np.exp(x))

    @given(shifted_stacks(), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_exp_matches_np_exp(self, a, with_nan):
        if with_nan:
            a[0, 0] = np.nan
        got = a.copy()
        dist._exp_stack(got)
        assert_same_bits(got, np.exp(a))

    @given(shifted_stacks())
    @settings(max_examples=200, deadline=None)
    def test_softmax_matches_plain_exp(self, a):
        got = dist.softmax(a)
        assert_same_bits(got, plain_softmax(a))
        for n in range(a.shape[0]):
            assert_same_bits(got[n], dist.softmax(a[n]))


# top probabilities that tie while their logits differ: p = 0.5 keeps the
# three entries at -2^-53, and the row's maximum (index 5) loses the tie
LOST_MAX_ROW = [-2.0 ** -53, -2.0 ** -52, -2.0 ** -53, -2.0 ** -52,
                -2.0 ** -53, 0.0]


class TestTopPSoftmax:
    """top_p_softmax against softmax(top_p_filter(...)), bit for bit."""

    @given(logit_inputs(), st.sampled_from([1.0, 20.0, 100.0]),
           st.one_of(st.floats(1e-12, 1.0),
                     st.sampled_from([1e-12, np.nextafter(1.0, 0.0), 1.0])))
    @settings(max_examples=200, deadline=None)
    def test_matches_filter_then_softmax(self, a, scale, p):
        a = a * scale  # wide rows reach the slow exp lanes
        assert_same_bits(dist.top_p_softmax(a, p),
                         dist.softmax(dist.top_p_filter(a, p)))

    def test_row_that_loses_its_maximum(self):
        row = np.array(LOST_MAX_ROW)
        filtered = dist.top_p_filter(row, 0.5)
        want = dist.softmax(filtered)
        assert np.isfinite(filtered).tolist() == [True, False] * 3
        # the row's own exponentials, kept and renormalized, are off here
        e = np.where(np.isfinite(filtered), np.exp(row - row.max()), 0.0)
        assert not np.array_equal(e / e.sum(), want)
        assert_same_bits(dist.top_p_softmax(row, 0.5), want)
        stack = np.stack([np.linspace(-3.0, 1.0, 6), row, row[::-1]])
        assert_same_bits(dist.top_p_softmax(stack, 0.5),
                         dist.softmax(dist.top_p_filter(stack, 0.5)))

    def test_empty_batch(self):
        assert dist.top_p_softmax(np.zeros((0, 5)), 0.5).shape == (0, 5)


def peaked_rows(a, p):
    """Which rows of ``a`` keep their top entry alone under top-p p: those
    whose largest probability, 1 / sum(exp(a - max)), reaches p."""
    e = np.exp(a - np.max(a, axis=-1, keepdims=True))
    return 1.0 / e.sum(axis=-1) >= p


class TestTopPPeakedRows:
    """Rows whose top probability reaches p are one-hot and skip the sort;
    every result still equals softmax(top_p_filter(...)) bit for bit."""

    @staticmethod
    def check(a, p):
        want = dist.softmax(dist.top_p_filter(a, p))
        assert_same_bits(dist.top_p_softmax(a, p), want)
        return want

    def test_mixed_stack(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((64, 16)) * np.repeat([0.5, 40.0], 32)[:, None]
        peaked = peaked_rows(a, 0.9)
        assert 0 < peaked.sum() < len(a)
        want = self.check(a, 0.9)
        assert np.array_equal(want[peaked].max(axis=-1), np.ones(peaked.sum()))

    @staticmethod
    def all_peaked(seed):
        # a spike 50 above the rest: probability at least 1 - 15 * e^-40
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((50, 16)) * 3.0
        a[np.arange(50), rng.integers(16, size=50)] += 50.0
        return a

    def test_all_peaked_stack(self):
        a = self.all_peaked(6)
        assert peaked_rows(a, 0.9).all()
        self.check(a, 0.9)
        self.check(a * 100.0, 0.9)  # the slow exp lanes

    def test_tie_below_the_maximum(self):
        # at a tiny p the nucleus is one entry; LOST_MAX_ROW's first
        # probability rounds to a tie with the max logit's, at index 0
        row = np.array(LOST_MAX_ROW)
        assert peaked_rows(row, 1e-12)
        want = self.check(row, 1e-12)
        assert want.tolist() == [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]
        assert np.argmax(row) == 5
        self.check(np.stack([row, row[::-1]]), 1e-12)

    def test_one_row(self):
        row = np.array([0.0, 8.0, -1.0, 8.0 - 1e-9, 3.0])
        assert not peaked_rows(row, 0.999)
        self.check(row, 0.9)  # peaked
        self.check(row, 0.999)

    def test_p_one_ulp_below_one(self):
        p = np.nextafter(1.0, 0.0)
        a = np.array([[0.0, -800.0, -900.0], [0.0, -30.0, -40.0],
                      [0.0, -1.0, -2.0]])
        assert peaked_rows(a, p).tolist() == [True, False, False]
        self.check(a, p)

    @pytest.mark.parametrize("p", [1e-12, 0.5, np.nextafter(1.0, 0.0)])
    def test_one_entry_rows(self, p):
        assert_same_bits(self.check(np.array([[3.0], [-2.0]]), p),
                         np.ones((2, 1)))
        self.check(np.array([7.0]), p)

    def test_peaked_rows_skip_the_sort(self, monkeypatch):
        rows = []
        sort_path = dist._top_p_keep

        def counted(q, p):
            rows.append(len(q))
            return sort_path(q, p)

        monkeypatch.setattr(dist, "_top_p_keep", counted)
        rng = np.random.default_rng(7)
        a = rng.standard_normal((40, 16)) * np.repeat([0.5, 40.0], 20)[:, None]
        dist.top_p_softmax(a, 0.9)
        assert rows == [np.count_nonzero(~peaked_rows(a, 0.9))]

        def raiser(q, p):
            raise AssertionError("a peaked row reached the sort path")

        monkeypatch.setattr(dist, "_top_p_keep", raiser)
        dist.top_p_softmax(self.all_peaked(8), 0.9)
        dist.top_p_softmax(np.array(LOST_MAX_ROW), 1e-12)


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", ["cond", "uncond"])
    @pytest.mark.parametrize("stacked", [False, True])
    def test_nonfinite_rejected(self, bad, side, stacked):
        # every non-finite entry, in either input, of a row or a stack
        pair = {"cond": np.array([1.0, 2.0, 3.0]),
                "uncond": np.array([0.5, 0.0, -1.0])}
        if stacked:
            pair = {key: np.stack([x, x + 1.0]) for key, x in pair.items()}
        pair[side].reshape(-1)[-2] = bad
        with pytest.raises(ValueError, match="guidance inputs"):
            dist.cfg_combine(pair["cond"], pair["uncond"], 1.5)


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

    @pytest.mark.parametrize("u", [1.0 - 1e-15, np.nextafter(1.0, 0.0)])
    def test_scalar_draw_takes_the_same_edges(self, u):
        # each row's total rounds below u or holds trailing zero mass, so
        # the scalar draw's top-edge clamp and zero-mass backoff decide its
        # token, which must be the row-wise core's
        p = np.array([[0.25, 0.75 - 1e-12, 0.0, 0.0],
                      [0.5, 0.5 - 1e-12, 0.0, 0.0],
                      [1.0 - 1e-12, 0.0, 0.0, 0.0],
                      [0.1, 0.2, 0.3, 0.4 - 1e-12],
                      [0.0, 0.0, 1.0, 0.0],
                      [0.0, 0.0, 0.0, 1.0]])

        class Fixed:
            def uniform(self):
                return u

        rows = dist._sample_rows(p, np.full(len(p), u)).tolist()
        assert rows == [1, 1, 0, 3, 2, 3]
        assert [dist.inverse_cdf(r, u) for r in p] == rows
        assert [dist.sample_categorical(r, Fixed()) for r in p] == rows

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

    def test_entropy_mixed_support_sizes(self):
        # rows with 1 to V positive entries, each summed like its 1-D form,
        # down to the sign of a zero entropy
        rng = np.random.default_rng(5)
        p = dist.softmax(rng.normal(scale=2.0, size=(40, 9)))
        for r in range(40):
            p[r, rng.permutation(9)[:r % 9]] = 0.0
        p /= p.sum(axis=1, keepdims=True)
        want = np.array([dist.support_entropy(r) for r in p])
        assert_same_bits(dist.support_entropy(p), want)
        assert_same_bits(dist.support_entropy(p[:0]), want[:0])

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
