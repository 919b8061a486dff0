import math
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entropix import dist, temperature
from entropix.oracle import Oracle, OracleConfig
from entropix.rng import RngStream
from entropix.scales import ScaleTempParams, scale_temperature
from entropix.temperature import (PRESETS, TempParams, dynamic_temperature,
                                  pipeline_probs, preset, sample_entropy_aware)
from test_dist import EXP_BANDS, LOST_MAX_ROW, peaked_rows, shifted_stacks


# Entropy gap (nats) beyond which T(eps) must strictly decrease in float64.
MONOTONE_RESOLUTION = 0.5


def scaled(factor):
    """Temperature adjuster that multiplies by ``factor`` (up to rounding)
    and clamps at the default 0.05 floor."""
    return partial(scale_temperature, s=1, sp=ScaleTempParams(1.0 - factor, 1))


class TestPresets:
    def test_published_triples(self):
        assert preset("llamagen") == TempParams(2.5, 3.0, 0.6)
        assert preset("lumina-mgpt") == TempParams(2.0, 2.5, 0.6)
        assert preset("meissonic") == TempParams(2.5, 3.0, 0.7)
        assert preset("star") == TempParams(2.5, 3.0, 0.5)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown preset") as exc:
            preset("gpt-4")
        for name in PRESETS:
            assert name in str(exc.value)

    def test_invalid_params(self):
        for bad in ((0.0, 1.0, 1.0), (1.0, -1.0, 1.0), (1.0, 1.0, 0.0)):
            with pytest.raises(ValueError):
                TempParams(*bad)


class TestDynamicTemperature:
    def test_zero_entropy(self):
        assert dynamic_temperature(0.0, preset("llamagen")) \
            == pytest.approx(3.1, abs=1e-12)

    def test_reference_value(self):
        ref = 2.5 * math.exp(-1.0) + 0.6
        got = dynamic_temperature(3.0, preset("llamagen"))
        assert got == pytest.approx(ref, abs=1e-15)
        assert got == pytest.approx(1.519699, abs=1e-6)

    def test_far_tail(self):
        assert abs(dynamic_temperature(50.0, preset("llamagen")) - 0.6) < 1e-6

    def test_negative_entropy(self):
        with pytest.raises(ValueError, match="negative entropy"):
            dynamic_temperature(-0.5, preset("llamagen"))

    def test_roundoff_clamped(self):
        got = dynamic_temperature(-1e-17, preset("star"))
        assert got == pytest.approx(3.0, abs=1e-12)

    def test_monotone_and_bounded_all_presets(self):
        rng = np.random.default_rng(2)
        for tp in PRESETS.values():
            pairs = rng.uniform(0, 12, size=(1000, 2))
            for a, b in pairs:
                lo, hi = sorted((a, b))
                if lo == hi:
                    continue
                assert dynamic_temperature(lo, tp) > dynamic_temperature(hi, tp)
            for e in pairs.reshape(-1):
                t = dynamic_temperature(e, tp)
                assert tp.theta < t <= tp.t0 + tp.theta

    @given(st.floats(0, 100), st.floats(0, 100))
    @example(0.0, 6.5e-75)  # both temperatures round to 3.2
    def test_monotone_property(self, a, b):
        # T is non-increasing everywhere, and strictly decreasing once the
        # entropies differ by MONOTONE_RESOLUTION: near eps = 100 that gap
        # moves T by about 14 ulps of 0.7, while a gap below one ulp of T
        # cannot move it at all
        tp = preset("meissonic")
        lo, hi = sorted((a, b))
        t_lo, t_hi = dynamic_temperature(lo, tp), dynamic_temperature(hi, tp)
        assert t_lo >= t_hi
        if hi - lo >= MONOTONE_RESOLUTION:
            assert t_lo > t_hi


class TestSamplePipeline:
    def test_uniform_large_vocab(self):
        logits = np.zeros(16384)
        trace = sample_entropy_aware(logits, tp=preset("llamagen"),
                                     rng=RngStream(0))
        assert trace.entropy == pytest.approx(math.log(16384), abs=1e-9)
        assert trace.entropy == pytest.approx(9.7041, abs=1e-4)
        ref_t = 2.5 * math.exp(-math.log(16384) / 3.0) + 0.6
        assert trace.temperature == pytest.approx(ref_t, abs=1e-12)
        assert trace.temperature == pytest.approx(0.6987, abs=1e-3)

    def test_dominant_logit(self):
        logits = np.zeros(16)
        logits[5] += 30.0
        rng = RngStream(4)
        hits = 0
        n = 10000
        for _ in range(n):
            trace = sample_entropy_aware(logits, tp=preset("llamagen"), rng=rng)
            hits += trace.token == 5
        assert trace.entropy < 1e-3
        assert trace.temperature == pytest.approx(3.1, abs=1e-3)
        assert hits / n > 0.99

    def test_cfg_fixed_point(self):
        logits = np.array([1.0, -0.5, 2.0, 0.0])
        a = sample_entropy_aware(logits, None, 1.0, preset("star"),
                                 rng=RngStream(8))
        b = sample_entropy_aware(logits, logits, 1.0, preset("star"),
                                 rng=RngStream(8))
        assert a == b

    def test_determinism(self):
        logits = RngStream(1).uniforms(32) * 4.0
        a = sample_entropy_aware(logits, tp=preset("llamagen"),
                                 top_k=8, top_p=0.9, rng=RngStream(77))
        b = sample_entropy_aware(logits, tp=preset("llamagen"),
                                 top_k=8, top_p=0.9, rng=RngStream(77))
        assert a == b

    def test_trace_records_used_values(self):
        logits = np.array([2.0, 1.0, 0.0])
        probs, eps, t = pipeline_probs(logits, tp=preset("llamagen"))
        trace = sample_entropy_aware(logits, tp=preset("llamagen"),
                                     rng=RngStream(3))
        assert trace.entropy == eps
        assert trace.temperature == t
        assert probs[trace.token] > 0

    def test_entropy_read_before_truncation(self):
        # the recorded entropy must come from the full distribution, not the
        # top-k truncated one
        logits = np.array([1.0, 0.9, 0.8, 0.7, 0.6])
        full_eps = dist.entropy(dist.softmax(logits))
        _, eps, _ = pipeline_probs(logits, tp=preset("llamagen"), top_k=2)
        assert eps == pytest.approx(full_eps, abs=1e-15)

    def test_high_temperature_flattens_argmax(self):
        # temperature induced by eps=0 exceeds that at eps=9, so the argmax
        # token keeps less post-pipeline mass under the eps=0 temperature
        tp = preset("llamagen")
        logits = np.array([math.log(0.8), math.log(0.2)])
        t_low_eps = dynamic_temperature(0.0, tp)
        t_high_eps = dynamic_temperature(9.0, tp)
        assert t_low_eps > t_high_eps
        p_hot = dist.softmax(dist.rescale_logits(logits, t_low_eps))
        p_cold = dist.softmax(dist.rescale_logits(logits, t_high_eps))
        assert p_hot[0] < p_cold[0]

    def test_requires_rng(self):
        with pytest.raises(ValueError):
            sample_entropy_aware([1.0, 2.0], tp=preset("llamagen"))

    def test_temperature_scale_clamped(self):
        logits = np.zeros(8)
        _, _, t = pipeline_probs(logits, tp=preset("llamagen"),
                                 adjust_temperature=scaled(1e-6))
        assert t == 0.05


class TestPipelineRows:
    @pytest.mark.parametrize("c", [0.0, 0.5])
    @pytest.mark.parametrize("options", [
        {}, {"top_k": 3}, {"top_p": 0.8}, {"top_k": 5, "top_p": 0.6},
        {"cfg_scale": 1.5}, {"cfg_scale": 1.5, "top_k": 4},
        {"adjust_temperature": scaled(0.3)},
        {"adjust_temperature": scaled(1e-3)},
    ])
    def test_rows_equal_single_rows(self, c, options):
        prof = np.linspace(0.0, 1.0, 64).reshape(8, 8)
        o = Oracle(OracleConfig(vocab=16, shape=(8, 8), profile=prof,
                                seed=4, context_sensitivity=c))
        positions = list(range(0, 64, 3))
        digests = [o.digest_of(list(range(p % 5))) for p in positions]
        cond = o.logits_rows(positions, digests)
        uncond = None
        if "cfg_scale" in options:
            uncond = o.logits_rows(positions, digests, conditional=False)
        probs, eps, t = pipeline_probs(cond, uncond, tp=preset("star"),
                                       **options)
        singles = [pipeline_probs(cond[n], None if uncond is None
                                  else uncond[n], tp=preset("star"), **options)
                   for n in range(len(positions))]
        assert np.array_equal(probs, np.stack([s[0] for s in singles]))
        assert np.array_equal(eps, [s[1] for s in singles])
        assert np.array_equal(t, [s[2] for s in singles])

    def test_rows_with_excluded_entries(self):
        # rows whose support is not full sum their entropy over the support,
        # exactly as a single row does
        rng = np.random.default_rng(5)
        logits = rng.normal(size=(6, 40))
        logits[1, [0, 9, 30]] = dist.EXCLUDED
        logits[4, 1:] = dist.EXCLUDED
        probs, eps, t = pipeline_probs(logits, top_p=0.7)
        for n in range(6):
            p1, e1, t1 = pipeline_probs(logits[n], top_p=0.7)
            assert np.array_equal(probs[n], p1)
            assert eps[n] == e1 and t[n] == t1

    def test_top_p_at_the_floor_temperature(self):
        # the pipeline's top-p against the two public steps, at a
        # temperature that leaves most lanes underflowing or subnormal
        logits = np.random.default_rng(7).normal(scale=20.0, size=(40, 24))
        probs, _, t = pipeline_probs(logits, top_p=0.9,
                                     adjust_temperature=scaled(1e-3))
        assert np.all(t == 0.05)
        want = dist.softmax(dist.top_p_filter(
            dist.rescale_logits(logits, t), 0.9))
        assert np.array_equal(probs.view(np.int64), want.view(np.int64))
        shifted = logits / 0.05 - (logits / 0.05).max(axis=1, keepdims=True)
        assert ((shifted < -746) & (want == 0)).any()
        assert ((shifted > -746) & (shifted < -708)).any()

    def test_top_p_row_that_loses_its_maximum(self):
        # top probabilities that tie while the logits differ: p = 0.5 keeps
        # the three entries at -2^-53 and drops the maximum at index 5
        row = [-2.0 ** -53, -2.0 ** -52] * 3
        row[5] = 0.0
        logits = np.array([row, np.linspace(-2.0, 1.0, 6)])
        probs, _, t = pipeline_probs(logits, top_p=0.5,
                                     adjust_temperature=np.ones_like)
        filtered = dist.top_p_filter(logits, 0.5)
        assert np.isfinite(filtered[0]).tolist() == [True, False] * 3
        want = dist.softmax(filtered)
        assert np.array_equal(probs.view(np.int64), want.view(np.int64))
        single = pipeline_probs(logits[0], top_p=0.5,
                                adjust_temperature=lambda t: 1.0)[0]
        assert np.array_equal(single.view(np.int64), want[0].view(np.int64))

    def test_one_row_returns_scalars(self):
        _, eps, t = pipeline_probs(np.array([0.5, 0.1, -0.3]))
        assert isinstance(eps, float) and isinstance(t, float)
        assert np.ndim(eps) == 0 and np.ndim(t) == 0

    def test_dynamic_temperature_rows(self):
        tp = preset("lumina-mgpt")
        eps = np.array([0.0, 1e-12, 0.7, 3.0, 11.5, -1e-12])
        got = dynamic_temperature(eps, tp)
        assert np.array_equal(got, [dynamic_temperature(float(e), tp)
                                    for e in eps])
        with pytest.raises(ValueError, match="negative entropy"):
            dynamic_temperature(np.array([0.2, -0.5]), tp)


def composed(cond, uncond, cfg_scale, tp, top_k, top_p, adjust):
    """The pipeline as a chain of the public, checked ``dist`` functions."""
    logits = dist.as_logits(cond)
    if uncond is not None:
        logits = dist.cfg_combine(logits, uncond, cfg_scale)
    p = dist.softmax(logits)
    eps = dist.support_entropy(p)
    t = dynamic_temperature(eps, tp)
    if adjust is not None:
        t = adjust(t)
    logits = dist.rescale_logits(logits, t)
    if top_k is not None:
        logits = dist.top_k_filter(logits, top_k)
    if top_p is None:
        return dist.softmax(logits), eps, t
    return dist.top_p_softmax(logits, top_p), eps, t


@st.composite
def pipeline_inputs(draw):
    """Logits of one row or an [N, V] stack, spread up to +-1e3 or +-1e300,
    with guidance on or off (and excluded entries only without it), and
    the pipeline's options: top-k, top-p and a temperature floor down to
    0.05."""
    v = draw(st.integers(1, 12))
    shape = (v,) if draw(st.booleans()) else (draw(st.integers(1, 5)), v)
    spread = draw(st.sampled_from([1e3, 1e300]))
    values = st.floats(-spread, spread)
    size = int(np.prod(shape))
    cond = np.array(draw(st.lists(values, min_size=size, max_size=size)))
    cond = cond.reshape(shape)
    uncond, cfg_scale = None, 1.0
    if draw(st.booleans()):
        uncond = np.array(draw(st.lists(values, min_size=size,
                                        max_size=size))).reshape(shape)
        cfg_scale = draw(st.sampled_from([1.5, 3.0, 0.5]))
    else:
        # exclude entries, keeping each row's last one
        excluded = np.array(draw(st.lists(st.booleans(), min_size=size,
                                          max_size=size))).reshape(shape)
        excluded[..., -1] = False
        cond[excluded] = dist.EXCLUDED
    options = {
        "top_k": draw(st.none() | st.integers(1, v + 1)),
        "top_p": draw(st.none() | st.floats(0.0, 1.0, exclude_min=True)),
        "adjust": draw(st.none() | st.builds(
            lambda beta, floor: partial(scale_temperature, s=1,
                                        sp=ScaleTempParams(beta, 1, floor)),
            st.floats(0.0, 0.999), st.floats(0.05, 1.0))),
    }
    return cond, uncond, cfg_scale, options


class TestPipelineChecksOnce:
    """pipeline_probs checks its inputs once and then runs dist's unchecked
    cores, with the first softmax's row max reused. Its output must still
    be the public functions' chain, and valid rows: the decoders draw from
    them without revalidating."""

    @settings(max_examples=300, deadline=None)
    @given(pipeline_inputs())
    def test_equals_public_chain_and_rows_are_valid(self, case):
        cond, uncond, cfg_scale, o = case
        tp = preset("llamagen")
        want = composed(cond, uncond, cfg_scale, tp, o["top_k"], o["top_p"],
                        o["adjust"])
        probs, eps, t = pipeline_probs(cond, uncond, cfg_scale, tp,
                                       o["top_k"], o["top_p"], o["adjust"])
        assert np.array_equal(probs.view(np.int64), want[0].view(np.int64))
        assert np.array_equal(eps, want[1]) and np.array_equal(t, want[2])
        for row in np.atleast_2d(probs):
            dist.validate_probs(row)


def fixed(T):
    """A temperature adjuster that applies T to every row."""
    return lambda t: np.full_like(t, T) if np.ndim(t) else T


def edge_mass(v, T, p):
    """The first-softmax mass of a row's other lanes at which
    pipeline_probs's certain-nucleus test flips, at applied temperature T
    and top-p p: the margin."""
    cap = (0.5 * min(1 / p - 1, 1) / temperature._SURE_SLACK
           - v * temperature._SURE_LANE)
    h = max(0.0, 1 - 1 / T) * math.log(v - 1) if v > 2 else 0.0
    return (1 + math.exp(T * (math.log(cap) - h))) / (
        1 + v * temperature._SURE_LANE) - 1


def edge_rows(v, T, p, factors, hot=0):
    """One row per factor, 0 at ``hot`` and one value below 0 at every
    other lane, whose other lanes' mass is the margin's times the
    factor."""
    rows = np.empty((len(factors), v))
    for row, f in zip(rows, factors):
        row[:] = math.log(edge_mass(v, T, p) * f / (v - 1))
        row[hot] = 0.0
    return rows


# settings whose margin a row reaches with its other lanes below its max,
# and where the row sum 1 + mass resolves a change of the mass by 1e-9
EDGES = [(T, p, v) for T in (0.05, 0.3, 1.0, 2.5, 40.0)
         for p in (0.9, 0.5, 0.2, 1e-3, 1 - 2.0 ** -30) for v in (2, 3, 64)
         if 1e-5 < edge_mass(v, T, p) < (v - 1) / 4]


def certain(logits, T, p):
    """pipeline_probs's certain rows of unguided logits at temperature T."""
    _, total, m = dist._shifted_exp(logits)
    sure = temperature._certain(total, m, np.full(len(logits), T),
                                logits.shape[-1], p)
    return np.zeros(len(logits), dtype=bool) if sure is None else sure


def assert_chain(logits, T, p, top_k=None):
    """pipeline_probs equals the public chain bit for bit, on the stack and
    on each row alone."""
    tp = preset("llamagen")
    got = pipeline_probs(logits, tp=tp, top_k=top_k, top_p=p,
                         adjust_temperature=fixed(T))
    want = composed(logits, None, 1.0, tp, top_k, p, fixed(T))
    for g, w in zip(got, want):
        assert np.array_equal(np.asarray(g).view(np.int64),
                              np.asarray(w).view(np.int64))
    if logits.ndim == 2:
        for row, probs in zip(logits, got[0]):
            one = pipeline_probs(row, tp=tp, top_k=top_k, top_p=p,
                                 adjust_temperature=fixed(T))[0]
            assert np.array_equal(one.view(np.int64), probs.view(np.int64))
    return got[0]


class TestCertainNuclei:
    """Rows that top-p must leave one-hot are written one-hot from the first
    softmax's row sum, with no rescale or second softmax; every result
    still equals the public chain bit for bit."""

    FACTORS = [1 - 1e-9, 1 + 1e-9, 1e-6, 0.5, 2.0]

    def test_settings(self):
        # T < 1 and T > 1, small p and p near 1, among the settings below
        assert len(EDGES) > 30
        assert {T > 1 for T, _, _ in EDGES} == {True, False}
        assert {p for _, p, _ in EDGES} >= {1e-3, 1 - 2.0 ** -30}

    @pytest.mark.parametrize("T, p, v", EDGES)
    def test_rows_straddling_the_bound(self, T, p, v):
        for hot in (0, v - 1):
            rows = edge_rows(v, T, p, self.FACTORS, hot)
            assert certain(rows, T, p).tolist() == [
                True, False, True, True, False]
            probs = assert_chain(rows, T, p)
            assert_chain(rows, T, p, top_k=2)
            assert (np.argmax(probs, axis=1) == hot).all()

    @pytest.mark.parametrize("p", [np.nextafter(1.0, 0.0), 1.0])
    def test_p_at_and_just_below_one(self, p):
        # 1/p - 1 rounds to 0 or is 0: no row is certain
        rows = np.array([[0.0, -800.0, -900.0], [0.0, -40.0, -50.0],
                         [0.0, -1.0, -2.0]])
        assert not np.any(certain(rows, 0.05, p))
        assert_chain(rows, 0.05, p)
        assert_chain(rows, 2.0, p, top_k=2)

    def test_tied_maxima(self):
        # a tied lane weighs 1 at any temperature: never certain, and the
        # chain keeps the lower index where it peaks
        rows = np.array([[3.0, 3.0, -50.0, -60.0], [-50.0, 3.0, -60.0, 3.0],
                         [1.0, 1.0, 1.0, 1.0]])
        for p in (0.9, 0.3, 1e-3):
            assert not certain(rows, 0.05, p).any()
            assert_chain(rows, 0.05, p)
            assert_chain(rows, 0.05, p, top_k=1)

    def test_a_lane_just_below_the_max_at_small_p(self):
        # rescaled by 3, the two logits round to one value and the chain's
        # one-hot lands on index 0, not on the max at index 1. The cap at 1
        # keeps such a row off the certain path; a bound of
        # (V - 1)(S - 1 + V 2^-52 S)^(1/T) <= (1/p - 1)/2 alone would admit
        # it
        low = 3.694644520472026
        row = np.array([[low, np.nextafter(low, 4.0)]])
        assert row[0, 0] / 3.0 == row[0, 1] / 3.0
        s = float(dist._shifted_exp(row)[1][0, 0])
        assert (s - 1 + 2 * 2.0 ** -52 * s) ** (1 / 3) <= (1 / 0.3 - 1) / 2
        assert not certain(row, 3.0, 0.3).any()
        probs = assert_chain(row, 3.0, 0.3)
        assert probs.tolist() == [[1.0, 0.0]]

    def test_flat_rest_above_temperature_one(self):
        # at T > 1, mass spread over many lanes weighs more than its sum
        # raised to 1/T: the power mean's factor (V - 1)^(1 - 1/T)
        rows = np.zeros((40, 64))
        rows[:, 1:] = np.log(np.logspace(-12, -1, 40) / 63)[:, None]
        for T in (1.5, 2.5, 4.0):
            sure = certain(rows, T, 0.9)
            assert 0 < sure.sum() < len(rows)
            assert_chain(rows, T, 0.9)

    def test_huge_logits(self):
        # divided by 2/3, 2^53 times apart, the two logits round to one
        # value: the chain keeps both. The rest mass alone would call the
        # row certain; |max| <= 2^40 t keeps it off that path
        row = np.array([[1.5336319967521104e16, 1.5336319967521102e16]])
        probs = assert_chain(row, 2 / 3, 0.9)
        assert probs.tolist() == [[0.5, 0.5]]
        assert not certain(row, 2 / 3, 0.9).any()
        assert certain(row - row[0, 0], 2 / 3, 0.9).all()

    def test_shapes(self):
        rows = edge_rows(16, 0.3, 0.9, [0.5, 2.0], hot=5)
        assert_chain(rows[:1], 0.3, 0.9)  # a [1, V] stack
        assert_chain(rows[1:], 0.3, 0.9)
        for row in rows:  # 1-D rows
            probs = assert_chain(row, 0.3, 0.9)
            assert probs.tolist() == [0.0] * 5 + [1.0] + [0.0] * 10
        one = np.array([[3.0], [-2.0]])  # V = 1
        assert certain(one, 0.3, 0.9).all()
        assert assert_chain(one, 0.3, 0.9).tolist() == [[1.0], [1.0]]
        assert assert_chain(np.array([7.0]), 0.3, 0.9).tolist() == [1.0]

    def test_oracle_rows(self):
        # guided oracle rows at scale decoding's floor and above it
        prof = np.linspace(0.0, 1.0, 64).reshape(8, 8)
        o = Oracle(OracleConfig(vocab=64, shape=(8, 8), profile=prof, seed=2,
                                context_sensitivity=0.5))
        cond = o.logits_rows(range(64), 7)
        uncond = o.logits_rows(range(64), 7, conditional=False)
        tp = preset("llamagen")
        for adjust in (scaled(1e-3), scaled(0.2), None):
            want = composed(cond, uncond, 1.5, tp, None, 0.9, adjust)
            got = pipeline_probs(cond, uncond, 1.5, tp, None, 0.9, adjust)
            assert np.array_equal(got[0].view(np.int64),
                                  want[0].view(np.int64))

    @pytest.mark.parametrize("top_k", [None, 3])
    def test_row_that_loses_its_maximum_among_shortcuts(self, top_k):
        # one stack of a certain row, a peaked row and LOST_MAX_ROW, whose
        # top probabilities tie while their logits differ: top-p at 0.5
        # (after top-k 3 too) drops its maximum at index 5, and the row
        # takes the reference's second softmax
        rows = np.array([[0.0, -60.0, -70.0, -80.0, -90.0, -100.0],
                         [0.0, -1.0, -2.0, -3.0, -4.0, -5.0],
                         LOST_MAX_ROW])
        assert certain(rows, 1.0, 0.5).tolist() == [True, False, False]
        assert peaked_rows(rows, 0.5).tolist() == [True, True, False]
        probs = assert_chain(rows, 1.0, 0.5, top_k)
        logits = rows if top_k is None else dist.top_k_filter(rows, top_k)
        filtered = dist.top_p_filter(logits, 0.5)
        assert not np.isfinite(filtered[2, 5])
        want = dist.softmax(filtered)
        assert np.array_equal(probs.view(np.int64), want.view(np.int64))

    def test_certain_rows_skip_the_chain(self, monkeypatch):
        rows = []
        chain = dist._top_p_softmax

        def counted(a, p):
            rows.append(len(a))
            return chain(a, p)

        monkeypatch.setattr(dist, "_top_p_softmax", counted)
        mixed = edge_rows(64, 0.3, 0.9, self.FACTORS * 3)
        sure = certain(mixed, 0.3, 0.9)
        assert 0 < sure.sum() < len(mixed)
        pipeline_probs(mixed, top_p=0.9, adjust_temperature=fixed(0.3))
        assert rows == [np.count_nonzero(~sure)]

        def raiser(a, p):
            raise AssertionError("a certain row reached the second softmax")

        monkeypatch.setattr(dist, "_top_p_softmax", raiser)
        peaked = edge_rows(64, 0.3, 0.9, [1e-3, 0.5, 1 - 1e-9])
        pipeline_probs(peaked, top_p=0.9, adjust_temperature=fixed(0.3))
        pipeline_probs(peaked[0], top_p=0.9, adjust_temperature=fixed(0.3))


# BAND_ROW's values, divided by the temperature 1/2, shift from its max 0
# to KEPT_SHIFTS, which top-k 3 keeps (exp(-720) is subnormal), and to
# dropped values in every band of np.exp: subnormal, underflowing, below
# -746, and -inf, to which the last value, -1e308, overflows
KEPT_SHIFTS = [0.0, -1.0, -720.0]
DROPPED_SHIFTS = [x for x in EXP_BANDS if -np.inf < x < -720.0]
BAND_ROW = np.append(0.5 * np.array(KEPT_SHIFTS + DROPPED_SHIFTS), -1e308)


def bands(x):
    """The np.exp bands that the shifted values x fall in."""
    e = np.exp(x)
    return {"subnormal": bool(((0 < e) & (e < np.finfo(float).tiny)).any()),
            "underflow": bool(((e == 0) & (x >= -746.0)).any()),
            "below -746": bool((np.isfinite(x) & (x < -746.0)).any()),
            "-inf": bool(np.isneginf(x).any())}


class TestTopKKeepMask:
    """Without top-p, top-k's dropped lanes are multiplied out after np.exp
    instead of being exponentiated from EXCLUDED; every result is still the
    public chain, bit for bit."""

    @pytest.mark.filterwarnings("ignore:overflow encountered in divide")
    def test_dropped_lanes_in_every_band(self):
        k = len(KEPT_SHIFTS)
        shifted = BAND_ROW / 0.5
        assert all(bands(shifted[k:]).values())
        assert bands(shifted[:k])["subnormal"]
        assert np.isneginf(shifted[-1]) and np.isfinite(BAND_ROW).all()
        rng = np.random.default_rng(3)
        stack = np.stack([BAND_ROW, BAND_ROW[::-1], rng.permutation(BAND_ROW),
                          BAND_ROW + 2.0 ** -30])
        probs = assert_chain(stack, 0.5, None, top_k=k)
        assert (np.count_nonzero(probs, axis=1) == k).all()
        for top_k in (1, k + 1, len(BAND_ROW)):
            assert_chain(stack, 0.5, None, top_k)

    @given(shifted_stacks(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_shifted_stacks(self, a, data):
        k = data.draw(st.integers(1, a.shape[-1]))
        assert_chain(a, 1.0, None, k)

    def test_no_excluded_lane_is_exponentiated(self, monkeypatch):
        def raiser(a, k):
            raise AssertionError("top-k wrote EXCLUDED lanes")

        softmax = dist._softmax

        def finite(a, m=None, keep=None):
            assert np.isfinite(a).all() and keep is not None
            return softmax(a, m, keep)

        monkeypatch.setattr(dist, "_top_k_filter", raiser)
        monkeypatch.setattr(dist, "_softmax", finite)
        stack = np.stack([BAND_ROW[:-1], BAND_ROW[-2::-1]])
        for logits in (stack, stack[0]):
            pipeline_probs(logits, top_k=3, adjust_temperature=fixed(0.5))
