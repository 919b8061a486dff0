"""Golden values for the numpy oracle kernels.

The hash is splitmix64 over wrapping 64-bit arithmetic and the float mapping
one multiply by 2^-64, so every value below is exact; a changed constant,
shift or rounding step changes it.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entropix import _kernels_py as k


def rand_u64(rng, n):
    return rng.integers(0, 1 << 64, size=n, dtype=np.uint64)


def sha256(a) -> str:
    return hashlib.sha256(a.tobytes()).hexdigest()


def unmix64(h: int) -> int:
    """The value z with mix64(z) == h: each finalizer step undone."""
    def unshift(y, s):  # x from y = x ^ (x >> s)
        x = y
        for _ in range(64 // s + 1):
            x = y ^ (x >> s)
        return x

    h = unshift(h, 31) * pow(k.MIX_M2, -1, 1 << 64) & k.MASK64
    h = unshift(h, 27) * pow(k.MIX_M1, -1, 1 << 64) & k.MASK64
    return (unshift(h, 30) - k.GOLDEN) & k.MASK64


# position and context keys whose token-0 hashes are 0 and 3 * 2^62: the
# position noise there is exactly 0, so the context term alone sets the value
ZERO_POS_KEY, CTX_KEY_3_4 = unmix64(0), unmix64(3 << 62)


def ref_noise(pos_keys, ctx_keys, c, vocab):
    """The allocating noise formula: one new array per operation."""
    t = np.arange(vocab, dtype=np.uint64)
    u = k._mix64_vec(pos_keys + t * np.uint64(k.TOK_SALT)).astype(
        np.float64) * 2.0 ** -64
    if c != 0.0:
        u2 = k._mix64_vec(ctx_keys + t * np.uint64(k.CTX_SALT)).astype(
            np.float64) * 2.0 ** -64
        u = (1.0 - c) * u + c * u2
    return u


def ref_raw_logits_rows(pos_keys, ctx_keys, c, vocab, tstars, gaps):
    u = ref_noise(pos_keys[:, None], ctx_keys[:, None], c, vocab)
    u[np.arange(u.shape[0]), tstars] += gaps
    return u


def row_inputs(rng, n, vocab):
    """n rows of keys with repeated targets and every third gap zero."""
    pk, ctx = rand_u64(rng, n), rand_u64(rng, n)
    tstars = rng.integers(0, max(1, vocab // 4), size=n)
    gaps = rng.uniform(0, 30, size=n)
    gaps[::3] = 0.0
    return pk, ctx, tstars, gaps


class TestMix64:
    def test_fixed_points(self):
        # mix64(0) is splitmix64's first output from state 0
        assert k.mix64(0) == 0xE220A8397B1DCDAF
        assert k.mix64(1) == 0x910A2DEC89025CC1
        assert k.mix64((1 << 64) - 1) == 0xE4D971771B652C20

    def test_seeded(self):
        xs = [int(x) for x in rand_u64(np.random.default_rng(0), 4)]
        assert xs == [0xA30FEBCFD9C2825F, 0x4510BDF882D9D721,
                      0x0A7D3DA94ECDE8B8, 0x043B27B61342F01D]
        assert [k.mix64(x) for x in xs] == [
            0xE2987B4B5E16BA13, 0xD9A4076B5C720EBC,
            0x5C892A2F11A190C9, 0xE20A74F0857975CF]


class TestPrefixFold:
    def test_seeded(self):
        rng = np.random.default_rng(1)
        expected = {0: 0x2CB0F69F4ABEA221, 1: 0x392EF14DA56A0019,
                    3: 0x9DF8F4742731BBBB, 17: 0xF80429D0723E1BE8,
                    200: 0xAFB87AE77F64C14C}
        for n, digest in expected.items():
            toks = rand_u64(rng, n) % 1024
            idxs = rand_u64(rng, n) % 4096
            assert k.prefix_fold(toks, idxs) == digest


class TestRawLogits:
    def test_stationary(self):
        assert sha256(k.raw_logits(12345, 0, 0.0, 64, 7, 30.0)) == \
            "98cf86380f24ec19fa1799db884acf055a6b302a8fd67a4a439f4c5dd28a7d2f"

    def test_context(self):
        a = k.raw_logits(0xDEADBEEFCAFEF00D, 0x0123456789ABCDEF, 0.7, 64, 3,
                         21.0)
        assert sha256(a) == \
            "f5c1697771fb8fd79b007edb13759e1ab4bb6202e9cac07bbc4599cabad911e6"

    def test_seeded(self):
        rng = np.random.default_rng(2)
        h = hashlib.sha256()
        for _ in range(50):
            pk = int(rand_u64(rng, 1)[0])
            ctx = int(rand_u64(rng, 1)[0])
            c = float(rng.uniform())
            vocab = int(rng.integers(2, 200))
            tstar = int(rng.integers(0, vocab))
            gap = float(rng.uniform(0, 30))
            h.update(k.raw_logits(pk, ctx, c, vocab, tstar, gap).tobytes())
        assert h.hexdigest() == \
            "d9879e8f29209abb10e9328cc8719c77dc618a5690b41ae2cff98e67d0997d71"

    def test_rows_seeded(self):
        # 50 rows with repeated targets and some zero gaps, at c = 0 and
        # c > 0; recorded from the per-row scatter loop
        rng = np.random.default_rng(3)
        n, vocab = 50, 97
        pk, ctx = rand_u64(rng, n), rand_u64(rng, n)
        tstars = rng.integers(0, vocab, size=n)
        gaps = rng.uniform(0, 30, size=n)
        gaps[::7] = 0.0
        h = hashlib.sha256()
        for c in (0.0, 0.6):
            h.update(k.raw_logits_rows(pk, ctx, c, vocab, tstars,
                                       gaps).tobytes())
        assert h.hexdigest() == \
            "dab855acee457cf993678868278e7ec502a27bc8b016f290cedb442949e5f362"

    def test_rows_multi_block_seeded(self):
        # 600 rows span more than one block; recorded from the unblocked
        # kernel, which computed each [N, V] operation at once
        rng = np.random.default_rng(5)
        n, vocab = 600, 97
        assert n > k._BLOCK_ELEMS // vocab
        pk, ctx = rand_u64(rng, n), rand_u64(rng, n)
        tstars = rng.integers(0, vocab // 4, size=n)
        gaps = rng.uniform(0, 30, size=n)
        gaps[::5] = 0.0
        h = hashlib.sha256()
        for c in (0.0, 0.6, 1.0):
            h.update(k.raw_logits_rows(pk, ctx, c, vocab, tstars,
                                       gaps).tobytes())
        assert h.hexdigest() == \
            "0623c28818e31b922a3a80bca7d89d5e72b359c6dd2a83fab0da9ed1060bd7ae"

    def test_rows_equal_one_row(self):
        # pins the batched scatter to the one-row kernel's scalar gap add,
        # at batch sizes around the block size b
        rng = np.random.default_rng(4)
        vocab = 97
        b = k._BLOCK_ELEMS // vocab
        for n in (0, 1, b - 1, b, b + 1, 2 * b + 3):
            pk, ctx, tstars, gaps = row_inputs(rng, n, vocab)
            for c in (0.0, 0.6, 1.0):
                rows = k.raw_logits_rows(pk, ctx, c, vocab, tstars, gaps)
                assert rows.shape == (n, vocab)
                for i in range(n):
                    one = k.raw_logits(int(pk[i]), int(ctx[i]), c, vocab,
                                       int(tstars[i]), float(gaps[i]))
                    assert np.array_equal(rows[i], one)


class TestRawLogitsMatchesReference:
    """The blocked kernel against the allocating formula, bit for bit."""

    def test_unmix64(self):
        assert k.mix64(ZERO_POS_KEY) == 0
        assert k.mix64(CTX_KEY_3_4) == 3 << 62

    @given(st.integers(0, 600), st.integers(1, 200),
           st.one_of(st.floats(0.0, 1.0),
                     st.sampled_from([0.0, 1.0, float(np.nextafter(1.0, 0.0)),
                                      1e-300, 5e-324])),
           st.integers(0, 2 ** 32 - 1), st.booleans())
    @settings(max_examples=100, deadline=None)
    @example(1, 1, 5e-324, 0, True)
    @example(1, 1, 1e-300, 0, True)
    def test_rows(self, n, vocab, c, seed, zero_noise):
        pk, ctx, tstars, gaps = row_inputs(np.random.default_rng(seed), n,
                                           vocab)
        if zero_noise and n:
            pk[-1], ctx[-1], gaps[-1] = ZERO_POS_KEY, CTX_KEY_3_4, 0.0
        got = k.raw_logits_rows(pk, ctx, c, vocab, tstars, gaps)
        want = ref_raw_logits_rows(pk, ctx, c, vocab, tstars, gaps)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @given(st.integers(1, 200),
           st.sampled_from(["none", "one", "block", "blocks"]),
           st.one_of(st.floats(0.0, 1.0),
                     st.sampled_from([0.0, 1.0, float(np.nextafter(1.0, 0.0)),
                                      5e-324])),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=100, deadline=None)
    @example(64, "blocks", 5e-324, 0)
    @example(97, "block", float(np.nextafter(1.0, 0.0)), 1)
    def test_position_noise_path(self, vocab, size, c, seed):
        # the position noise from the kernel called with no context keys and
        # no gaps, handed back with the rows to read, gives every row bit
        # for bit and is left as it was
        b = k._BLOCK_ELEMS // vocab
        n = {"none": 0, "one": 1, "block": b, "blocks": 2 * b + 3}[size]
        rng = np.random.default_rng(seed)
        pk, ctx, tstars, gaps = row_inputs(rng, n, vocab)
        want = k.raw_logits_rows(pk, ctx, c, vocab, tstars, gaps)
        # a table with spare rows, read in shuffled order
        order = rng.permutation(n + 5)
        table = k.raw_logits_rows(np.concatenate([pk, rand_u64(rng, 5)])[
            np.argsort(order)], None, c, vocab)
        before = table.copy()
        got = k.raw_logits_rows(pk, ctx, c, vocab, tstars, gaps, table,
                                order[:n])
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert np.array_equal(table.view(np.int64), before.view(np.int64))
        noise = k.raw_logits_rows(pk, None, c, vocab)
        for i in sorted({0, n // 2, n - 1} & set(range(n))):
            args = (int(pk[i]), int(ctx[i]), c, vocab, int(tstars[i]),
                    float(gaps[i]))
            kept = noise[i].copy()
            row = k.raw_logits(*args, noise[i])
            assert np.array_equal(noise[i].view(np.int64), kept.view(np.int64))
            assert np.array_equal(row.view(np.int64),
                                  k.raw_logits(*args).view(np.int64))
        # k-element keys, targets and gaps with [k, V] noise: the rows of
        # one call, each its row of the batched kernel
        for rows in ([0, n - 1], [n // 2]) if n else ():
            kept = noise[rows]
            got = k.raw_logits(None, [int(ctx[i]) for i in rows], c, vocab,
                               [int(tstars[i]) for i in rows],
                               [float(gaps[i]) for i in rows], kept)
            assert np.array_equal(got.view(np.int64),
                                  want[rows].view(np.int64))
            assert np.array_equal(kept.view(np.int64),
                                  noise[rows].view(np.int64))


def split_ties():
    """Values halfway between two doubles at every exponent above 2^53,
    rounding down and up to even, and their neighbours."""
    vals = []
    for e in range(53, 64):
        ulp = 1 << (e - 52)
        for tie in ((1 << e) + ulp // 2, (1 << e) + ulp + ulp // 2,
                    (1 << (e + 1)) - ulp // 2):
            vals += [tie - 1, tie, tie + 1]
    return vals


SPLIT_EDGES = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 52, 2 ** 53 - 1, 2 ** 53,
               2 ** 53 + 1, 2 ** 63 - 1, 2 ** 63, 2 ** 63 + 1, 2 ** 64 - 1]


def split(values):
    z = np.array(values, dtype=np.uint64)
    return k._u64_to_f64(z.copy(), np.empty_like(z)), z.astype(np.float64)


class TestSplitConversion:
    """The two-half uint64 -> float64 conversion against numpy's cast."""

    def test_edges_and_ties(self):
        got, want = split(SPLIT_EDGES + split_ties())
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=300))
    @settings(max_examples=200, deadline=None)
    def test_random_values(self, values):
        got, want = split(values)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("c", [0.0, 0.5, float(np.nextafter(1.0, 0.0))])
    @pytest.mark.parametrize("delta", [-1, 0, 1])
    def test_rows_around_the_dispatch_size(self, monkeypatch, delta, c):
        # blocks from _SPLIT_MIN_ELEMS values up are split, smaller ones
        # cast; either way every row is the one-row kernel's, bit for bit
        vocab = 64
        n = k._SPLIT_MIN_ELEMS // vocab + delta
        calls = []
        convert = k._u64_to_f64
        monkeypatch.setattr(k, "_u64_to_f64",
                            lambda z, t: calls.append(z.size) or convert(z, t))
        pk, ctx, tstars, gaps = row_inputs(np.random.default_rng(n), n, vocab)
        got = k.raw_logits_rows(pk, ctx, c, vocab, tstars, gaps)
        assert bool(calls) == (delta >= 0)
        assert np.array_equal(
            got.view(np.int64),
            ref_raw_logits_rows(pk, ctx, c, vocab, tstars, gaps).view(np.int64))
        for i in range(n):
            row = k.raw_logits(int(pk[i]), int(ctx[i]), c, vocab,
                               int(tstars[i]), float(gaps[i]))
            assert np.array_equal(got[i].view(np.int64), row.view(np.int64))
