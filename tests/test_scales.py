import hashlib
import tracemalloc

import numpy as np
import pytest

from entropix import decode, dist
from entropix.config import RunConfig, build_run
from entropix.oracle import Oracle, OracleConfig, profile_rect
from entropix.rng import RngStream
from entropix.scales import (SCALE_STRIDE, ScaleTempParams, scale_generate,
                             scale_temperature)
from entropix.temperature import (TempParams, dynamic_temperature,
                                  pipeline_probs, preset)


class TestScaleTemperature:
    def test_midpoint_identity(self):
        sp = ScaleTempParams(0.3, 15)
        assert scale_temperature(2.0, 15 // 2, sp) == pytest.approx(2.0)

    def test_reference_point(self):
        sp = ScaleTempParams(0.3, 15)
        assert scale_temperature(1.0, 8, sp) == pytest.approx(0.7, abs=1e-12)

    def test_clamp_engaged(self):
        sp = ScaleTempParams(0.3, 15)
        # raw value 1 - 0.3*8 = -1.4 at the last scale
        assert scale_temperature(1.0, 15, sp) == 0.05
        for s in range(1, 16):
            assert scale_temperature(1.0, s, sp) > 0.0
        # the unclamped value is nonpositive from scale 12 on
        tiny = ScaleTempParams(0.3, 15, 1e-300)
        assert all(scale_temperature(1.0, s, tiny) == 1e-300
                   for s in range(12, 16))

    def test_monotone_around_midpoint(self):
        sp = ScaleTempParams(0.25, 9)
        seq = [scale_temperature(1.5, s, sp) for s in range(1, 10)]
        mid = 9 // 2
        before, after = seq[:mid], seq[mid - 1:]
        assert all(a >= b for a, b in zip(before, before[1:]))
        assert all(a >= b for a, b in zip(after, after[1:]))

    def test_bounds_checks(self):
        sp = ScaleTempParams(0.3, 4)
        with pytest.raises(ValueError):
            scale_temperature(1.0, 0, sp)
        with pytest.raises(ValueError):
            scale_temperature(1.0, 5, sp)
        with pytest.raises(ValueError):
            scale_temperature(0.0, 1, sp)
        with pytest.raises(ValueError):
            scale_temperature(np.array([1.0, 0.0]), 1, sp)
        with pytest.raises(ValueError):
            ScaleTempParams(1.0, 4)
        with pytest.raises(ValueError):
            ScaleTempParams(0.3, 0)


def make_oracle(seed=5, c=0.5):
    prof = profile_rect((4, 4), 0.8, 0.2, (1, 1, 2, 2))
    return Oracle(OracleConfig(vocab=16, shape=(4, 4), profile=prof,
                               seed=seed, context_sensitivity=c))


class TestScaleGenerate:
    def test_single_scale_matches_plain_pipeline(self):
        # S=1: the scale factor is 1 - beta*(1 - 0) applied once; with beta=0
        # this is exactly single-shot parallel sampling
        o = make_oracle()
        sp = ScaleTempParams(0.0, 1)
        grids, emaps, me, temps = scale_generate(o, [(4, 4)],
                                                 preset("llamagen"), sp,
                                                 RngStream(2))
        rng = RngStream(2)
        expected = np.zeros((4, 4), dtype=int)
        for i in range(4):
            for j in range(4):
                pos = 1 * SCALE_STRIDE + i * 4 + j
                kappa = o.cfg.profile.reshape(-1)[i * 4 + j]
                logits = o.logits_at(pos, [], [], kappa=kappa)
                probs, eps, t = pipeline_probs(logits, tp=preset("llamagen"))
                expected[i, j] = dist.sample_categorical(probs, rng)
                assert emaps[0][i, j] == eps
        np.testing.assert_array_equal(grids[0], expected)

    def test_beta_zero_no_decay(self):
        o = make_oracle()
        ladder = [(1, 1), (2, 2), (4, 4)]
        _, _, _, temps0 = scale_generate(o, ladder, preset("llamagen"),
                                         ScaleTempParams(0.0, 3), RngStream(4))
        # with beta = 0 every applied temperature stays inside Eq. 2's range
        tp = preset("llamagen")
        assert all(tp.theta < t <= tp.t0 + tp.theta for t in temps0)

    @pytest.mark.parametrize("beta", [0.3, 0.0])
    def test_floor_applied_at_every_scale(self, beta):
        # theta below the floor: the dynamic temperature drops under it at
        # high entropy, also at the middle scale and when beta = 0, where
        # the decay factor is exactly 1
        tp = TempParams(0.05, 0.5, 0.01)
        sp = ScaleTempParams(beta, 4, 0.05)
        ladder = [(1, 1), (2, 2), (4, 4), (4, 4)]
        _, emaps, _, temps = scale_generate(make_oracle(), ladder, tp, sp,
                                            RngStream(1))
        start = 0
        for s, emap in enumerate(emaps, start=1):
            applied = temps[start:start + emap.size]
            start += emap.size
            assert min(applied) >= sp.floor_temperature
            expected = scale_temperature(
                dynamic_temperature(emap.reshape(-1), tp), s, sp)
            assert np.array_equal(applied, expected)
        assert min(dynamic_temperature(np.concatenate(
            [e.reshape(-1) for e in emaps]), tp)) < sp.floor_temperature

    def test_later_scales_condition_on_earlier(self):
        o = make_oracle(c=1.0)
        ladder = [(1, 1), (2, 2)]
        sp = ScaleTempParams(0.3, 2)
        g1, _, _, _ = scale_generate(o, ladder, preset("llamagen"), sp,
                                     RngStream(0))
        # rerun scale 2 with a modified scale-1 token: logits must differ
        pos = 2 * SCALE_STRIDE
        a = o.logits_at(pos, [int(g1[0][0, 0])], [1 * SCALE_STRIDE],
                        kappa=o.cfg.profile.reshape(-1)[0])
        b = o.logits_at(pos, [(int(g1[0][0, 0]) + 1) % 16], [1 * SCALE_STRIDE],
                        kappa=o.cfg.profile.reshape(-1)[0])
        assert not np.array_equal(a, b)

    def test_scales_condition_on_coarser_scales(self, monkeypatch):
        # scale s is scored on the digest of scales 1..s-1 at their strided
        # positions, never of itself
        seen = []

        def recording(oracle, positions, digests, *args, **kwargs):
            # a shared digest stands for one digest per position
            seen.append(np.broadcast_to(digests, len(positions)).tolist())
            return score(oracle, positions, digests, *args, **kwargs)

        score = decode.score
        monkeypatch.setattr(decode, "score", recording)
        o = make_oracle()
        ladder = [(1, 1), (2, 2), (4, 4)]
        grids, _, _, _ = scale_generate(o, ladder, preset("llamagen"),
                                        ScaleTempParams(0.3, 3), RngStream(5))
        assert len(seen) == len(ladder)
        toks, idxs = [], []
        for s, (digests, grid) in enumerate(zip(seen, grids), start=1):
            assert digests == [o.digest_of(toks, idxs)] * grid.size
            toks += grid.reshape(-1).tolist()
            idxs += (s * SCALE_STRIDE + np.arange(grid.size)).tolist()

    def test_golden_three_scale_run(self):
        grids, emaps, me, temps = scale_generate(
            make_oracle(), [(1, 1), (2, 2), (4, 4)], preset("llamagen"),
            ScaleTempParams(0.3, 3), RngStream(5))
        np.testing.assert_array_equal(grids[0], [[13]])
        np.testing.assert_array_equal(grids[1], [[7, 2], [7, 4]])
        np.testing.assert_array_equal(grids[2], [[4, 14, 8, 0],
                                                 [6, 10, 7, 1],
                                                 [14, 11, 0, 1],
                                                 [15, 2, 13, 10]])
        np.testing.assert_allclose(
            me, [1.92988189325e-08, 0.0722989587835, 0.060068623313],
            rtol=1e-10)

    def test_ladder_validation(self):
        o = make_oracle()
        with pytest.raises(ValueError):
            scale_generate(o, [], preset("llamagen"),
                           ScaleTempParams(0.3, 1), RngStream(0))
        with pytest.raises(ValueError):
            scale_generate(o, [(2, 2)], preset("llamagen"),
                           ScaleTempParams(0.3, 2), RngStream(0))

    def test_reproducible(self):
        args = (make_oracle(), [(1, 1), (2, 2), (4, 4)], preset("star"),
                ScaleTempParams(0.3, 3))
        a = scale_generate(*args, RngStream(9))
        b = scale_generate(*args, RngStream(9))
        for ga, gb in zip(a[0], b[0]):
            np.testing.assert_array_equal(ga, gb)


def float_digest(values):
    """Short SHA-256 of the exact float64 bytes, for bit-level goldens."""
    raw = np.asarray(values, dtype=np.float64).tobytes()
    return hashlib.sha256(raw).hexdigest()[:16]


# Frozen regression values: (context sensitivity, sampling options, token
# grids, entropy-map digest over all scales, mean-entropy digest,
# temperature digest) for a low-kappa seed 5 oracle, the 3-scale ladder and
# stream 5. Recorded from the per-position scale loop (commit 8aa6442) so
# that restructuring the loop stays byte-identical.
SCALE_GOLDEN = [
    (0.0, {},
     [[[7]], [[10, 0], [0, 1]], [[4, 7, 8, 0], [6, 6, 13, 1], [7, 0, 6, 15], [15, 2, 13, 10]]],
     '131b90a88401d85d', 'df02fbb64e4322c8', 'c3a1f04aad4941d1'),
    (0.0, {'cfg_scale': 1.5, 'top_k': 5},
     [[[13]], [[7, 2], [1, 1]], [[4, 14, 8, 0], [6, 5, 15, 1], [14, 0, 4, 13], [15, 2, 13, 10]]],
     '2e132ba1b01c07ea', '7eb15e8f18b7ca4e', 'e8c857c79532889c'),
    (0.0, {'top_p': 0.9},
     [[[8]], [[10, 0], [0, 3]], [[4, 11, 8, 0], [6, 5, 13, 1], [12, 0, 6, 14], [15, 2, 13, 10]]],
     '131b90a88401d85d', 'df02fbb64e4322c8', 'c3a1f04aad4941d1'),
    (0.5, {},
     [[[7]], [[10, 0], [0, 1]], [[4, 7, 8, 0], [5, 6, 13, 1], [7, 1, 6, 15], [15, 2, 13, 10]]],
     '68cb038408483c2a', 'ad6d098dfd865cc3', '60c56c0d8c27187f'),
    (0.5, {'cfg_scale': 1.5, 'top_k': 5},
     [[[13]], [[7, 2], [1, 1]], [[4, 14, 8, 0], [6, 5, 9, 1], [14, 1, 10, 14], [15, 2, 13, 10]]],
     '8ab6c738cb1ba2d4', 'b7df55afa31c1cd8', '79247f805d9016a7'),
    (0.5, {'top_p': 0.9},
     [[[7]], [[10, 0], [0, 1]], [[4, 11, 8, 0], [6, 7, 13, 1], [10, 1, 5, 12], [15, 2, 13, 10]]],
     '68cb038408483c2a', 'ad6d098dfd865cc3', '60c56c0d8c27187f'),
]


class TestScaleGolden:
    @pytest.mark.parametrize("c,options,grids,emap_digest,mean_digest,"
                             "temp_digest", SCALE_GOLDEN)
    def test_golden(self, c, options, grids, emap_digest, mean_digest,
                    temp_digest):
        prof = profile_rect((4, 4), 0.1, 0.0, (1, 1, 2, 2))
        o = Oracle(OracleConfig(vocab=16, shape=(4, 4), profile=prof, seed=5,
                                context_sensitivity=c))
        g, emaps, me, temps = scale_generate(
            o, [(1, 1), (2, 2), (4, 4)], preset("llamagen"),
            ScaleTempParams(0.3, 3), RngStream(5), **options)
        assert [x.tolist() for x in g] == grids
        assert float_digest(np.concatenate([e.ravel() for e in emaps])) \
            == emap_digest
        assert float_digest(me) == mean_digest
        assert float_digest(temps) == temp_digest
        assert len(temps) == 21


class TestScaleFloorGolden:
    """Scale decoding into the floor temperature, where the batched softmax
    meets underflowing and subnormal exp lanes and top-p reuses its
    exponentials: V = 64, a 64x64 grid under a kappa ramp from 0 to 1
    across the columns, the default 7-scale ladder, beta 0.3, floor 0.05,
    top-p 0.9, guidance 1.5 and context 0.5. Digests of the tokens (as
    float64), the entropies and the applied temperatures, recorded at
    commit 5159eb5, before the fast-lane softmax and the split hash
    conversion."""

    def test_golden_at_the_floor(self):
        prof = np.tile(np.linspace(0.0, 1.0, 64), (64, 1))
        o = Oracle(OracleConfig(vocab=64, shape=(64, 64), profile=prof,
                                seed=7, context_sensitivity=0.5))
        ladder = [(2 ** i, 2 ** i) for i in range(7)]
        g, emaps, _, temps = scale_generate(
            o, ladder, preset("llamagen"), ScaleTempParams(0.3, 7, 0.05),
            RngStream(7), top_p=0.9, cfg_scale=1.5)
        assert np.mean(np.asarray(temps) == 0.05) > 0.7
        assert float_digest(np.concatenate([x.ravel() for x in g])) \
            == "fcdb684ca3bc10ca"
        assert float_digest(np.concatenate([e.ravel() for e in emaps])) \
            == "6faf911382be8f5c"
        assert float_digest(temps) == "d15144ad126f1268"


class TestScaleMemory:
    def test_peak_stays_below_one_stack(self):
        # perfbench's scale-ladder config: a 128x128 scale is one logical
        # query of 16,384 rows, which decode.score_draw scores a cache
        # block at a time. tracemalloc counts numpy's buffers, and the
        # count is deterministic; scoring the scale whole peaked at about
        # 45 MiB, the block-wise core at about 3 MiB.
        cfg = RunConfig(mode="scale", vocab=64, height=128, width=128,
                        preset="llamagen", kappa_bg=0.9, kappa_fg=0.1,
                        rect=(32, 32, 64, 64), context_sensitivity=0.5,
                        cfg_scale=1.5, top_p=0.9, beta=0.3,
                        floor_temperature=0.05)
        r = build_run(cfg)
        tracemalloc.start()
        try:
            grids, _, _, _ = scale_generate(r.oracle, r.ladder, r.tp,
                                            r.scale, r.rng, cfg.top_k,
                                            cfg.top_p, cfg.cfg_scale)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert grids[-1].shape == (128, 128)
        assert peak < 128 * 128 * 64 * 8  # one [16384, 64] float64 stack
