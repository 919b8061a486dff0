import hashlib
import itertools
import math

import numpy as np
import pytest
from scipy import stats as sstats

from entropix import _kernels_py, mask
from entropix.mask import (MaskState, StepSchedule, confidence_rows,
                           cosine_schedule, mask_generate, update_mask)
from entropix.oracle import Oracle, OracleConfig, mask_token, profile_rect
from entropix.rng import RngStream
from entropix.temperature import preset


def one(p_sampled, temperature, u):
    """Confidence of one position, as a float."""
    return float(confidence_rows(np.array([p_sampled]), np.array([temperature]),
                                 np.array([u]))[0])


class TestConfidence:
    def test_zero_noise_point(self):
        # u = 1/e drives the Gumbel transform to exactly 0
        assert one(1.0, 2.0, 1 / math.e) == pytest.approx(0.0, abs=1e-12)

    def test_low_temperature_preserves_ranking(self):
        t = 1e-9
        hi, lo = confidence_rows(np.array([0.9, 0.1]), np.array([t, t]),
                                 np.array([0.3, 0.3]))
        assert hi > lo

    def test_golden_value(self):
        # frozen: seed 7, p = 0.5, T = 1
        got = one(0.5, 1.0, RngStream(7).uniform())
        assert got == pytest.approx(0.79485590682416751, abs=1e-15)
        gumbel = got - math.log(0.5)
        assert gumbel == pytest.approx(1.4880030873841128, abs=1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            one(0.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            one(0.5, 0.0, 0.5)

    def test_rows_equal_sequential(self):
        # one call over all rows equals one call per row, with the uniforms
        # taken in row order from the same stream
        p = np.array([0.5, 1.0, 1e-9, 0.25])
        t = np.array([1.0, 0.6, 3.1, 2.2])
        seq = RngStream(17)
        expected = [one(a, b, seq.uniform()) for a, b in zip(p, t)]
        got = confidence_rows(p, t, RngStream(17).uniforms(4))
        assert np.array_equal(got, expected)

    def test_rows_validation(self):
        ok, u = np.array([0.5, 0.5]), np.array([0.3, 0.3])
        with pytest.raises(ValueError):
            confidence_rows(np.array([0.5, 0.0]), np.ones(2), u)
        with pytest.raises(ValueError):
            confidence_rows(np.array([0.5, 1.5]), np.ones(2), u)
        with pytest.raises(ValueError):
            confidence_rows(ok, np.array([1.0, -1.0]), u)

    def test_noise_variance_scales_with_temperature(self):
        # Gumbel variance pi^2/6 scaled by T^2, within 5%
        n = 100000
        for t in (0.7, 2.0):
            draws = confidence_rows(np.full(n, 0.5), np.full(n, t),
                                    RngStream(21).uniforms(n))
            expected = t * t * math.pi ** 2 / 6.0
            assert abs(draws.var() - expected) / expected < 0.05


class TestUpdateMask:
    def test_accept_all_remaining(self):
        state = MaskState.initial((2, 2))
        conf = np.array([[1.0, 2.0], [3.0, 4.0]])
        toks = np.arange(4).reshape(2, 2)
        out = update_mask(conf, state, 4, toks)
        assert out.accepted.all()
        np.testing.assert_array_equal(out.tokens, toks)

    def test_top_two(self):
        state = MaskState.initial((2, 2))
        conf = np.array([[4.0, 3.0], [2.0, 1.0]])
        out = update_mask(conf, state, 2)
        np.testing.assert_array_equal(out.accepted,
                                      [[True, True], [False, False]])

    def test_tie_break_row_major(self):
        state = MaskState.initial((2, 2))
        conf = np.zeros((2, 2))
        out = update_mask(conf, state, 1)
        np.testing.assert_array_equal(out.accepted,
                                      [[True, False], [False, False]])

    def test_accepted_positions_untouched(self):
        state = MaskState.initial((2, 2))
        toks = np.full((2, 2), 9)
        state = update_mask(np.array([[5.0, 0.0], [0.0, 0.0]]), state, 1, toks)
        assert state.tokens[0, 0] == 9
        # a later step with higher confidence elsewhere must not rewrite it
        out = update_mask(np.full((2, 2), 100.0), state,
                          2, np.zeros((2, 2), dtype=int))
        assert out.tokens[0, 0] == 9
        assert out.accepted[0, 0]

    def test_k_out_of_range(self):
        state = MaskState.initial((2, 2))
        conf = np.zeros((2, 2))
        with pytest.raises(ValueError):
            update_mask(conf, state, 5)
        with pytest.raises(ValueError):
            update_mask(conf, state, 0)


class TestSelectionLaw:
    def test_gumbel_top_k_law(self):
        # At T = 1 the k highest of log p + g, g ~ Gumbel(0, 1), are k draws
        # without replacement with chance proportional to p (Kool et al.
        # 2019): the ordered pair (a, b) has chance p_a / S * p_b / (S - p_a).
        p = np.array([0.5, 0.3, 0.15, 0.05])
        trials, k = 20000, 2
        pairs = list(itertools.combinations(range(4), k))
        total = p.sum()
        law = np.array([sum(p[a] / total * p[b] / (total - p[a])
                            for a, b in (pair, pair[::-1]))
                        for pair in pairs])
        index = {pair: n for n, pair in enumerate(pairs)}
        counts = np.zeros(len(pairs))
        u = RngStream(0).uniforms(4 * trials).reshape(trials, 4)
        ones, initial = np.ones(4), MaskState.initial((2, 2))
        for row in u:
            conf = confidence_rows(p, ones, row).reshape(2, 2)
            chosen = np.flatnonzero(update_mask(conf, initial, k).accepted)
            counts[index[tuple(chosen)]] += 1
        assert sstats.chisquare(counts, law * trials).pvalue > 1e-3


class TestCosineSchedule:
    def test_small_feasible(self):
        s = cosine_schedule(4, 4)
        assert sum(s.counts) == 4
        assert all(k >= 1 for k in s.counts)

    def test_conservation_large(self):
        s = cosine_schedule(1024, 64)
        assert sum(s.counts) == 1024

    def test_counts_nondecreasing(self):
        for tokens, steps in ((256, 8), (256, 16), (256, 64), (1024, 64)):
            s = cosine_schedule(tokens, steps)
            assert all(a <= b for a, b in zip(s.counts, s.counts[1:]))

    def test_too_many_steps(self):
        with pytest.raises(ValueError):
            cosine_schedule(4, 5)

    @staticmethod
    def bump_loop(total_tokens, total_steps):
        """The counts as cosine_schedule's earlier loop built them, on
        Python ints: one largest-remainder unit at a time, then each zero
        (the first one) bumped to 1 by taking a unit off the first largest
        count, one at a time."""
        t = np.arange(total_steps + 1) / total_steps
        ideal = np.diff(1.0 - np.cos(t * np.pi / 2.0)) * total_tokens
        floor = np.floor(ideal)
        counts = floor.astype(int).tolist()
        order = np.argsort(-(ideal - floor), kind="stable").tolist()
        for i in order[:total_tokens - sum(counts)]:
            counts[i] += 1
        while 0 in counts:
            counts[counts.index(0)] += 1
            counts[counts.index(max(counts))] -= 1
        return tuple(sorted(counts))

    def test_matches_the_bump_loop(self):
        # every (tokens, steps) with steps <= tokens <= 300, then a few
        # large ones where most early counts start at zero
        pairs = [(n, k) for n in range(1, 301) for k in range(1, n + 1)]
        pairs += [(4096, 4096), (4099, 4096), (4096, 3000), (5000, 4999),
                  (12345, 1000), (1 << 16, 256)]
        for tokens, steps in pairs:
            assert cosine_schedule(tokens, steps).counts == \
                self.bump_loop(tokens, steps), (tokens, steps)

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            StepSchedule(4, (1, 2))
        with pytest.raises(ValueError):
            StepSchedule(4, (0, 4))


def small_oracle(seed=11, c=0.5):
    prof = profile_rect((8, 8), 0.9, 0.1, (2, 2, 4, 4))
    return Oracle(OracleConfig(vocab=16, shape=(8, 8), profile=prof,
                               seed=seed, context_sensitivity=c))


class TestMaskGenerate:
    def test_single_step(self):
        o = small_oracle()
        sched = StepSchedule(64, (64,))
        grid, emap, hist, temps = mask_generate(o, (8, 8), sched,
                                                preset("llamagen"),
                                                RngStream(0))
        assert hist[-1].accepted.all()
        assert len(hist) == 2
        assert len(temps) == 64

    def test_sequential_limit(self):
        o = Oracle(OracleConfig(vocab=8, shape=(3, 3), seed=2,
                                context_sensitivity=0.5))
        sched = StepSchedule(9, (1,) * 9)
        grid, emap, hist, temps = mask_generate(o, (3, 3), sched,
                                                preset("llamagen"),
                                                RngStream(1))
        counts = [h.accepted.sum() for h in hist]
        assert counts == list(range(10))

    def test_coverage_and_immutability(self):
        o = small_oracle()
        sched = cosine_schedule(64, 16)
        grid, emap, hist, temps = mask_generate(o, (8, 8), sched,
                                                preset("llamagen"),
                                                RngStream(6))
        prev = None
        for h in hist:
            if prev is not None:
                # acceptance only grows, and accepted tokens never change
                assert np.all(prev.accepted <= h.accepted)
                assert np.all(h.tokens[prev.accepted]
                              == prev.tokens[prev.accepted])
            prev = h
        # acceptance step counts match the schedule exactly
        deltas = [int(b.accepted.sum() - a.accepted.sum())
                  for a, b in zip(hist, hist[1:])]
        assert deltas == list(sched.counts)
        assert grid.min() >= 0 and grid.max() < 16

    def test_schedule_grid_mismatch(self):
        o = small_oracle()
        with pytest.raises(ValueError):
            mask_generate(o, (8, 8), StepSchedule(10, (10,)),
                          preset("llamagen"), RngStream(0))

    def test_golden_grid(self):
        # frozen regression: seed 11 oracle and stream, 8-step cosine schedule
        grid, emap, hist, temps = mask_generate(
            small_oracle(), (8, 8), cosine_schedule(64, 8),
            preset("llamagen"), RngStream(11))
        expected = [
            [7, 12, 15, 7, 7, 2, 3, 2],
            [4, 1, 3, 13, 0, 6, 7, 4],
            [5, 6, 4, 5, 7, 15, 10, 4],
            [15, 6, 14, 2, 13, 15, 9, 5],
            [13, 9, 14, 0, 8, 7, 6, 9],
            [7, 1, 4, 3, 2, 15, 2, 7],
            [15, 15, 10, 8, 12, 14, 9, 2],
            [4, 2, 2, 12, 9, 12, 9, 8],
        ]
        np.testing.assert_array_equal(grid, expected)
        assert cosine_schedule(64, 8).counts == (1, 4, 6, 8, 10, 11, 12, 12)

    def test_steps_condition_on_the_frozen_grid(self, monkeypatch):
        # each step's digest is that of the grid accepted before it, mask
        # ids dropped; drafts that were not accepted must not leak in
        seen = []

        def recording(oracle, positions, digests, *args, **kwargs):
            # a shared digest stands for one digest per position
            seen.append(np.broadcast_to(digests, len(positions)).tolist())
            return score(oracle, positions, digests, *args, **kwargs)

        score = mask.score
        monkeypatch.setattr(mask, "score", recording)
        o = small_oracle()
        _, _, hist, _ = mask_generate(o, (8, 8), cosine_schedule(64, 8),
                                      preset("llamagen"), RngStream(11))
        assert len(seen) == len(hist) - 1
        mid = mask_token(16)
        for digests, before in zip(seen, hist):
            grid = np.where(before.accepted, before.tokens, mid)
            assert digests == [o.digest_of(grid.reshape(-1))] \
                * before.remaining()

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_entropy_map_holds_the_accepting_step(self, monkeypatch, seed):
        # an open position is rescored every step on a new digest, so its
        # entropy changes from step to step; the map keeps the entropy of
        # the step whose update_mask accepted it
        steps = []

        def recording(oracle, positions, digests, *args, **kwargs):
            out = score(oracle, positions, digests, *args, **kwargs)
            steps.append(dict(zip(np.asarray(positions).tolist(),
                                  out[1].tolist())))
            return out

        score = mask.score
        monkeypatch.setattr(mask, "score", recording)
        _, emap, hist, _ = mask_generate(
            small_oracle(seed=seed), (8, 8), cosine_schedule(64, 8),
            preset("llamagen"), RngStream(seed), top_k=5, cfg_scale=1.5)
        assert len(steps) == len(hist) - 1
        want = np.full(64, np.nan)
        for step, before, after in zip(steps, hist, hist[1:]):
            assert sorted(step) == np.flatnonzero(~before.accepted).tolist()
            for p in np.flatnonzero(after.accepted & ~before.accepted):
                want[p] = step[p]
        assert emap.reshape(-1).tolist() == want.tolist()

    def test_entropy_map_bounds(self):
        grid, emap, _, _ = mask_generate(
            small_oracle(), (8, 8), cosine_schedule(64, 16),
            preset("llamagen"), RngStream(3))
        assert np.all(emap >= 0) and np.all(emap <= math.log(16) + 1e-12)


def float_digest(values):
    """Short SHA-256 of the exact float64 bytes, for bit-level goldens."""
    raw = np.asarray(values, dtype=np.float64).tobytes()
    return hashlib.sha256(raw).hexdigest()[:16]


# Frozen regression values with guidance and truncation: (sampling options,
# token grid, entropy-map digest, temperature digest) for the seed 11 oracle,
# stream 5 and the 8-step cosine schedule. Recorded from the per-position
# reference loop that predates the batched step query.
MASK_GOLDEN = [
    ({'cfg_scale': 1.5, 'top_p': 0.8}, [
        [7, 12, 15, 7, 7, 2, 3, 2],
        [4, 1, 3, 13, 0, 6, 7, 4],
        [5, 6, 10, 11, 12, 12, 10, 4],
        [15, 6, 0, 11, 3, 15, 9, 5],
        [13, 9, 2, 14, 12, 11, 6, 9],
        [7, 1, 4, 0, 7, 14, 2, 7],
        [15, 15, 10, 8, 12, 14, 9, 2],
        [4, 2, 2, 12, 9, 12, 9, 8],
    ], 'c5a6793ef26f5e7c', '32f9840d2b1e52c6'),
    ({'cfg_scale': 0.7, 'top_k': 6}, [
        [7, 12, 15, 7, 7, 2, 3, 2],
        [4, 1, 3, 13, 0, 6, 7, 4],
        [5, 6, 15, 10, 13, 12, 10, 4],
        [15, 6, 11, 10, 13, 15, 9, 5],
        [13, 9, 2, 14, 13, 8, 6, 7],
        [7, 1, 4, 9, 12, 14, 2, 7],
        [15, 15, 10, 8, 12, 14, 9, 2],
        [4, 2, 2, 12, 9, 12, 9, 8],
    ], '38fbf1a000f40c0f', '3afb35d4b54a3db5'),
]


class TestMaskGolden:
    @pytest.mark.parametrize("options,expected,emap_digest,temp_digest",
                             MASK_GOLDEN)
    def test_golden_guided(self, options, expected, emap_digest,
                           temp_digest):
        grid, emap, hist, temps = mask_generate(
            small_oracle(), (8, 8), cosine_schedule(64, 8),
            preset("llamagen"), RngStream(5), **options)
        np.testing.assert_array_equal(grid, expected)
        assert float_digest(emap) == emap_digest
        assert float_digest(temps) == temp_digest
        assert len(temps) == sum(64 - int(h.accepted.sum())
                                 for h in hist[:-1])

    def test_golden_grid_over_one_block(self):
        # 576 positions at V = 64: the grid's position noise spans two
        # blocks of the kernel, with guidance and context. Recorded (grid
        # as float64 bytes) at commit 24e9c0a, whose step queries hashed
        # every open row whole.
        assert 24 * 24 > _kernels_py._BLOCK_ELEMS // 64
        oracle = Oracle(OracleConfig(
            vocab=64, shape=(24, 24),
            profile=profile_rect((24, 24), 0.9, 0.1, (6, 6, 12, 12)),
            seed=11, context_sensitivity=0.5))
        grid, emap, hist, temps = mask_generate(
            oracle, (24, 24), cosine_schedule(576, 8), preset("llamagen"),
            RngStream(5), top_p=0.8, cfg_scale=1.5)
        assert grid[0, :8].tolist() == [23, 60, 63, 23, 39, 18, 51, 2]
        assert float_digest(grid) == "83a923f60f35f66c"
        assert float_digest(emap) == "7d8bab4b07a04ab1"
        assert float_digest(temps) == "95c4aeeaa6ce7e3b"
        assert len(temps) == 3211
