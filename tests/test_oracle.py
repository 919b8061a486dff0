import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entropix import dist
from entropix._kernels_py import mix64
from entropix.oracle import (GAP_MAX, Oracle, OracleConfig, RunningDigest,
                             mask_token, profile_rect)
from entropix.scales import SCALE_STRIDE


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
        index = range(len(tokens))
        running = RunningDigest()
        running.append(tokens[:split], index[:split])
        assert running.digest() == o.digest_of(tokens[:split])
        conts = running.continuation_digests(tokens[split:], index[split:])
        assert conts == [o.digest_of(tokens[:split + i])
                         for i in range(len(tokens) - split + 1)]
        # a Jacobi window commits a prefix of its continuation's folds and
        # then, if it has one, a tail pair
        folds = running.continuation(tokens[split:], index[split:])
        assert [mix64(int(f)) for f in folds] == conts
        k = data.draw(st.integers(0, len(tokens) - split))
        tail = data.draw(st.none() | st.integers(0, 63))
        ahead = copy.copy(running)
        if tail is None:
            ahead.advance(folds[k])
        else:
            ahead.advance(folds[k], tail, split + k)
        assert ahead.digest() == o.digest_of(
            tokens[:split + k] + ([] if tail is None else [tail]))
        running.append(tokens[split:], index[split:])
        assert running.digest() == o.digest_of(tokens)
        # one token at a time, as sequential decoding appends
        single = RunningDigest()
        for i, t in enumerate(tokens):
            single.append([t], [i])
        assert single.digest() == o.digest_of(tokens)

    @given(st.lists(st.tuples(st.integers(0, 63), st.integers(1, 12),
                              st.integers(0, (1 << 20) - 1)),
                    max_size=40),
           st.data())
    @settings(max_examples=60)
    def test_strided_batches_match_digest_of(self, pairs, data):
        # batches of pairs at scale positions s * SCALE_STRIDE + i, split
        # anywhere: the running digest equals digest_of of what was
        # appended, and each continuation digest that of the extended prefix
        o = make(c=0.5)
        toks = [t for t, _, _ in pairs]
        idxs = [s * SCALE_STRIDE + i for _, s, i in pairs]
        cuts = sorted(data.draw(st.lists(st.integers(0, len(pairs)),
                                         max_size=4)))
        running = RunningDigest()
        for lo, hi in zip([0] + cuts, cuts + [len(pairs)]):
            conts = running.continuation_digests(toks[lo:hi], idxs[lo:hi])
            assert conts == [o.digest_of(toks[:lo + i], idxs[:lo + i])
                             for i in range(hi - lo + 1)]
            running.append(np.array(toks[lo:hi]), np.array(idxs[lo:hi]))
            assert running.digest() == o.digest_of(toks[:hi], idxs[:hi])

    def test_empty_prefix(self):
        assert RunningDigest().digest() == make().digest_of([])
        assert RunningDigest().continuation_digests([], []) \
            == [make().digest_of([])]


def same_bits(a, b) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.int64),
                                                 b.view(np.int64))


class TestLogitsKinds:
    @settings(max_examples=150, deadline=None)
    @given(vocab=st.sampled_from([2, 16, 64]),
           c=st.sampled_from([0.3, 0.5, 1.0]),
           kinds=st.sampled_from([(True, False), (True,), (False,)]),
           seed=st.integers(0, (1 << 64) - 1),
           data=st.data())
    def test_kinds_equal_one_kind_queries(self, vocab, c, kinds, seed, data):
        # one query for the guidance pair gives each kind's row bit for
        # bit, whether it derives its prefix-free inputs or reads them from
        # a chunk; the chunk starts anywhere, so positions wrap the grid
        prof = (np.arange(15) * 7 % 11 / 10).reshape(3, 5)
        o = Oracle(OracleConfig(vocab=vocab, shape=(3, 5), profile=prof,
                                seed=seed, context_sensitivity=c))
        start = data.draw(st.integers(0, 1 << 20))
        span = range(start, start + data.draw(st.integers(1, 40)))
        K = data.draw(st.none() | st.lists(
            st.floats(0.0, 1.0), min_size=len(span), max_size=len(span)))
        chunk = o.position_inputs(span, kinds, K)
        before = chunk.noise.copy()
        i = data.draw(st.integers(0, len(span) - 1))
        d = data.draw(st.integers(0, (1 << 64) - 1))
        kappa = None if K is None else K[i]
        want = [o.logits_from_digest(span[i], d, kind, kappa)
                for kind in kinds]
        rows = [o.logits_rows([span[i]], [d], kind,
                              None if K is None else [kappa])[0]
                for kind in kinds]
        entry = list(chunk.rows())[i]
        for got in (o.logits_kinds(span[i], d, kinds, kappa),
                    o.logits_kinds(span[i], d, kinds, inputs=entry)):
            assert got.shape == (len(kinds), vocab)
            for r in range(len(kinds)):
                assert same_bits(got[r], want[r])
                assert same_bits(got[r], rows[r])
        # the batched query reads the same span, its kappas included
        for r, kind in enumerate(kinds):
            assert same_bits(o.logits_rows([span[i]], [d], kind,
                                           inputs=chunk)[0], want[r])
        assert same_bits(chunk.noise, before)

    def test_invalid_position(self):
        with pytest.raises(ValueError, match="position out of range"):
            make().logits_kinds(-1, 0)
        with pytest.raises(ValueError, match="position out of range"):
            make().position_inputs(range(-1, 3))
        with pytest.raises(ValueError, match="consecutive"):
            make().position_inputs(range(0, 6, 2))


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

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, (1 << 70) - 1),
           shape=st.tuples(st.integers(1, 4), st.integers(1, 4)),
           vocab=st.integers(2, 40),
           c=st.sampled_from([0.0, 0.4, 1.0]),
           conditional=st.booleans(),
           data=st.data())
    def test_rows_equal_one_row_queries(self, seed, shape, vocab, c,
                                        conditional, data):
        # the batched query derives its keys with array arithmetic and the
        # one-row query with Python ints; seeds reach past 2^64
        n = data.draw(st.integers(1, 8))
        position = st.one_of(
            st.integers(0, (1 << 40) - 1),
            st.builds(lambda s, i: s * SCALE_STRIDE + i,
                      st.integers(1, 12), st.integers(0, 1 << 20)))
        P = data.draw(st.lists(position, min_size=n, max_size=n))
        D = data.draw(st.lists(st.integers(0, (1 << 64) - 1), min_size=n,
                               max_size=n))
        K = data.draw(st.none() | st.lists(st.floats(0.0, 1.0), min_size=n,
                                           max_size=n))
        h, w = shape
        prof = (np.arange(h * w) * 7 % 11 / 10).reshape(shape)
        o = Oracle(OracleConfig(vocab=vocab, shape=shape, profile=prof,
                                seed=seed, context_sensitivity=c))
        rows = o.logits_rows(P, D, conditional, K)
        assert rows.shape == (n, vocab)
        for i in range(n):
            one = o.logits_from_digest(P[i], D[i], conditional,
                                       None if K is None else K[i])
            assert np.array_equal(rows[i], one)

    def test_empty_batch(self):
        o = make(vocab=16, c=0.5)
        assert o.logits_rows([], []).shape == (0, 16)
        assert o.logits_rows([], [], False, []).shape == (0, 16)

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

    @pytest.mark.parametrize("c", [0.0, 0.6])
    @pytest.mark.parametrize("conditional", [True, False])
    @pytest.mark.parametrize("with_noise", [False, True])
    def test_shared_digest_equals_one_per_row(self, c, conditional,
                                              with_noise):
        # one digest for every row is broadcast: bit for bit the rows of
        # the query that repeats it once per row
        o = make(vocab=16, c=c, kappa=0.3)
        inputs = o.position_inputs(range(64), (conditional,)) \
            if with_noise else None
        positions = [0, 5, 5, 63, 17]
        for d in (0, 12345, (1 << 63) + 7, (1 << 64) - 1,
                  o.digest_of([3, 1, 4])):
            got = o.logits_rows(positions, d, conditional, inputs=inputs)
            want = o.logits_rows(positions, [d] * len(positions),
                                 conditional, inputs=inputs)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert o.logits_rows([], 7, conditional).shape == (0, 16)

    def test_invalid(self):
        o = make()
        with pytest.raises(ValueError):
            o.logits_rows([0, 1], [0])
        for digests in ([0, 0, 0], [], [[0, 0]]):
            with pytest.raises(ValueError, match="equal length"):
                o.logits_rows([0, 1], digests)
        with pytest.raises(ValueError):
            o.logits_rows([0, -1], [0, 0])
        with pytest.raises(ValueError):
            o.logits_rows([0, 1], [0, 0], kappas=[0.5])

    @pytest.mark.parametrize("conditional", [True, False])
    def test_noise_table_is_read_only(self, conditional):
        # a span of position inputs, read in any order and as often as
        # needed, gives the rows of a query that derives its own; a span
        # may start anywhere and hold both kinds
        o = make(vocab=16, c=0.5, kappa=0.3)
        positions = [39, 5, 7, 7, 21]
        digests = [5, 6, 7, 8, 9]
        for span in (o.position_inputs(range(40), (conditional,)),
                     o.position_inputs(range(5, 40), (True, False))):
            before = span.noise.copy()
            for _ in range(2):
                got = o.logits_rows(positions, digests, conditional,
                                    inputs=span)
                assert np.array_equal(
                    got, o.logits_rows(positions, digests, conditional))
            assert np.array_equal(span.noise, before)
            with pytest.raises(ValueError, match="a row for every position"):
                o.logits_rows([3, 40], [0, 0], conditional, inputs=span)
        with pytest.raises(ValueError, match="a row for every position"):
            o.logits_rows([4], [0], conditional, inputs=span)
        with pytest.raises(ValueError, match="kappas"):
            o.logits_rows([5], [0], conditional, [0.5], span)
        with pytest.raises(ValueError):
            o.logits_rows([5], [0], not conditional,
                          inputs=o.position_inputs(range(40), (conditional,)))
