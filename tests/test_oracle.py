import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entropix import dist
from entropix.oracle import (GAP_MAX, Oracle, OracleConfig, RunningDigest,
                             mask_token, profile_rect)


def make(vocab=64, shape=(8, 8), kappa=0.0, seed=3, c=0.0):
    prof = np.full(shape, kappa)
    return Oracle(OracleConfig(vocab=vocab, shape=shape, profile=prof,
                               seed=seed, context_sensitivity=c))


class TestConfig:
    def test_defaults(self):
        cfg = OracleConfig()
        assert cfg.vocab == 64 and cfg.shape == (16, 16)
        assert np.all(cfg.profile == 0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            OracleConfig(vocab=1)
        with pytest.raises(ValueError):
            OracleConfig(context_sensitivity=1.5)
        with pytest.raises(ValueError):
            OracleConfig(profile=np.full((16, 16), 2.0))
        with pytest.raises(ValueError):
            OracleConfig(shape=(4, 4), profile=np.zeros((3, 3)))


class TestProfileRect:
    def test_whole_grid(self):
        prof = profile_rect((4, 4), 0.9, 0.2, (0, 0, 4, 4))
        assert np.all(prof == 0.2)

    def test_empty_rect(self):
        prof = profile_rect((4, 4), 0.9, 0.2, (1, 1, 0, 3))
        assert np.all(prof == 0.9)

    def test_patch(self):
        prof = profile_rect((4, 6), 0.8, 0.1, (1, 2, 2, 3))
        assert prof[0, 0] == 0.8
        assert prof[1, 2] == 0.1 and prof[2, 4] == 0.1
        assert prof[3, 2] == 0.8

    def test_out_of_bounds(self):
        with pytest.raises(ValueError):
            profile_rect((4, 4), 0.5, 0.5, (2, 2, 3, 1))
        with pytest.raises(ValueError):
            profile_rect((4, 4), 1.5, 0.5, (0, 0, 1, 1))

    def test_entropy_contrast(self):
        prof = profile_rect((16, 16), 0.9, 0.1, (4, 4, 8, 8))
        o = Oracle(OracleConfig(vocab=64, shape=(16, 16), profile=prof))
        emap = np.zeros((16, 16))
        for i in range(16):
            for j in range(16):
                emap[i, j] = dist.entropy(
                    dist.softmax(o.logits_at(i * 16 + j, [])))
        inside = emap[4:12, 4:12]
        outside = emap.sum() - inside.sum()
        outside /= 256 - 64
        assert inside.mean() - outside >= 2.0


class TestLogits:
    def test_deterministic(self):
        o = make(c=0.7)
        a = o.logits_at(5, [1, 2, 3])
        b = o.logits_at(5, [1, 2, 3])
        np.testing.assert_array_equal(a, b)

    def test_stationary_ignores_prefix(self):
        o = make(c=0.0)
        a = o.logits_at(5, [1, 2, 3])
        b = o.logits_at(5, [9, 9])
        np.testing.assert_array_equal(a, b)

    def test_context_sensitivity_reacts(self):
        o = make(c=0.7)
        a = o.logits_at(5, [1, 2, 3])
        b = o.logits_at(5, [3, 2, 1])
        assert not np.array_equal(a, b)

    def test_mask_id_dropped_from_digest(self):
        o = make(vocab=16, c=0.7)
        mid = mask_token(16)
        a = o.logits_at(3, [4, mid, 7, mid], [0, 1, 2, 3])
        b = o.logits_at(3, [4, 7], [0, 2])
        np.testing.assert_array_equal(a, b)

    def test_invalid_inputs(self):
        o = make(c=0.5)
        with pytest.raises(ValueError):
            o.logits_at(-1, [])
        with pytest.raises(ValueError):
            o.logits_at(0, [99], [0])  # token id beyond vocab + mask id

    def test_kappa_one_near_deterministic(self):
        o = make(kappa=1.0)
        for pos in range(16):
            eps = dist.entropy(dist.softmax(o.logits_at(pos, [])))
            assert eps < 0.01

    def test_kappa_zero_near_uniform(self):
        o = make(kappa=0.0)
        for pos in range(16):
            eps = dist.entropy(dist.softmax(o.logits_at(pos, [])))
            assert eps > 0.95 * math.log(64)

    def test_entropy_monotone_in_kappa(self):
        o = make()
        for pos in (0, 7, 33):
            eps = [dist.entropy(dist.softmax(
                o.logits_at(pos, [], kappa=k)))
                for k in (0.0, 0.25, 0.5, 0.75, 1.0)]
            assert all(a >= b for a, b in zip(eps, eps[1:]))

    def test_uncond_differs_from_cond(self):
        o = make()
        a = o.logits_at(2, [], conditional=True)
        b = o.logits_at(2, [], conditional=False)
        assert not np.array_equal(a, b)

    def test_gap_lands_on_target(self):
        o = make(kappa=1.0)
        for pos in range(8):
            logits = o.logits_at(pos, [])
            assert logits.max() - np.partition(logits, -2)[-2] \
                > GAP_MAX - 2.0


class TestGridConditioning:
    def test_mask_entries_ignored(self):
        o = make(vocab=16, shape=(4, 4), c=0.8)
        mid = mask_token(16)
        grid = np.full((4, 4), mid)
        grid[0, 0] = 3
        grid[2, 1] = 7
        # a mask step conditions on the whole grid, mask ids included
        a = o.logits_rows([1 * 4 + 1], [o.digest_of(grid.reshape(-1))])[0]
        b = o.logits_at(1 * 4 + 1, [3, 7], [0, 9])
        np.testing.assert_array_equal(a, b)


class TestPrefixDigest:
    def test_order_of_pairs_irrelevant(self):
        # the fold is a XOR reduction, so pair ordering cannot matter while
        # (token, index) bindings do
        o = make(c=1.0)
        a = o.digest_of([1, 2, 3], [0, 1, 2])
        b = o.digest_of([3, 1, 2], [2, 0, 1])
        assert a == b
        assert a != o.digest_of([1, 2, 3], [2, 1, 0])

    def test_length_mismatch(self):
        o = make()
        with pytest.raises(ValueError):
            o.digest_of([1, 2], [0])


class TestRunningDigest:
    @given(st.lists(st.integers(0, 63), max_size=40), st.data())
    @settings(max_examples=60)
    def test_matches_full_fold(self, tokens, data):
        # the running XOR over an accepted prefix plus any continuation must
        # equal folding the whole prefix from scratch
        o = make(c=0.5)
        split = data.draw(st.integers(0, len(tokens)))
        running = RunningDigest()
        running.append(tokens[:split])
        assert running.digest() == o.digest_of(tokens[:split])
        conts = running.continuation_digests(tokens[split:])
        assert conts == [o.digest_of(tokens[:split + i])
                         for i in range(len(tokens) - split + 1)]
        running.append(tokens[split:])
        assert running.length == len(tokens)
        assert running.digest() == o.digest_of(tokens)
        # one token at a time, as sequential decoding appends
        single = RunningDigest()
        for t in tokens:
            single.append([t])
        assert single.digest() == o.digest_of(tokens)

    def test_empty_prefix(self):
        assert RunningDigest().digest() == make().digest_of([])
        assert RunningDigest().continuation_digests([]) \
            == [make().digest_of([])]


class TestLogitsRows:
    @pytest.mark.parametrize("c", [0.0, 0.6, 1.0])
    @pytest.mark.parametrize("conditional", [True, False])
    def test_rows_equal_single_queries(self, c, conditional):
        o = make(vocab=16, c=c, kappa=0.4)
        positions = [0, 3, 3, 17, 63, 200, 5000]
        digests = [o.digest_of(list(range(n % 7))) for n in positions]
        rows = o.logits_rows(positions, digests, conditional)
        stacked = np.stack([o.logits_from_digest(p, d, conditional)
                            for p, d in zip(positions, digests)])
        assert rows.shape == (len(positions), 16)
        assert np.array_equal(rows, stacked)

    def test_kappa_override(self):
        o = make(vocab=16, c=0.5)
        rows = o.logits_rows([1, 2], [7, 9], kappas=[0.25, 0.75])
        assert np.array_equal(rows[0], o.logits_from_digest(1, 7, kappa=0.25))
        assert np.array_equal(rows[1], o.logits_from_digest(2, 9, kappa=0.75))

    def test_logits_at_is_one_row(self):
        o = make(vocab=16, c=0.7)
        prefix = [3, 1, 4, 1, 5]
        assert np.array_equal(
            o.logits_at(5, prefix),
            o.logits_rows([5], [o.digest_of(prefix)])[0])

    def test_invalid(self):
        o = make()
        with pytest.raises(ValueError):
            o.logits_rows([0, 1], [0])
        with pytest.raises(ValueError):
            o.logits_rows([0, -1], [0, 0])
        with pytest.raises(ValueError):
            o.logits_rows([0, 1], [0, 0], kappas=[0.5])
