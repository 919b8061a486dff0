import math
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entropix import dist
from entropix.oracle import Oracle, OracleConfig
from entropix.rng import RngStream
from entropix.scales import ScaleTempParams, scale_temperature
from entropix.temperature import (PRESETS, TempParams, dynamic_temperature,
                                  pipeline_probs, preset, sample_entropy_aware)


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
        # the pipeline's one-exponentiation top-p against the two steps, at
        # a temperature that leaves most lanes underflowing or subnormal
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
