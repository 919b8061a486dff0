"""Golden values for the numpy oracle kernels.

The hash is splitmix64 over wrapping 64-bit arithmetic and the float mapping
one multiply by 2^-64, so every value below is exact; a changed constant,
shift or rounding step changes it.
"""

import hashlib

import numpy as np

from entropix import _kernels_py as k


def rand_u64(rng, n):
    return rng.integers(0, 1 << 64, size=n, dtype=np.uint64)


def sha256(a) -> str:
    return hashlib.sha256(a.tobytes()).hexdigest()


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
