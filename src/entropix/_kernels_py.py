"""Numpy kernels for the synthetic logits oracle.

The hash is plain splitmix64 over wrapping 64-bit arithmetic and the float
mapping is a single multiply by 2^-64, so every output is exact and
platform-independent (pinned by golden values in ``tests/test_kernels.py``).
"""

from typing import List, Optional

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
MIX_M1 = 0xBF58476D1CE4E5B9
MIX_M2 = 0x94D049BB133111EB

TOK_SALT = 0x8CB92BA72F3D8DD7
CTX_SALT = 0xABCC79579A4E1CBB
FOLD_TOK = 0x9E3779B97F4A7C15
FOLD_IDX = 0xC2B2AE3D27D4EB4F
FOLD_INIT = 0x243F6A8885A308D3

_INV_2_64 = 2.0 ** -64

_U = np.uint64
_GOLDEN_U, _M1_U, _M2_U = _U(GOLDEN), _U(MIX_M1), _U(MIX_M2)
_S27, _S30, _S31 = _U(27), _U(30), _U(31)
_TOK_SALT_U, _CTX_SALT_U = _U(TOK_SALT), _U(CTX_SALT)
_FOLD_TOK_U, _FOLD_IDX_U = _U(FOLD_TOK), _U(FOLD_IDX)


def mix64(z: int) -> int:
    """splitmix64 finalizer on a 64-bit value."""
    z = (z + GOLDEN) & MASK64
    z = ((z ^ (z >> 30)) * MIX_M1) & MASK64
    z = ((z ^ (z >> 27)) * MIX_M2) & MASK64
    return z ^ (z >> 31)


def _mix64_vec(z: np.ndarray) -> np.ndarray:
    z = z + _GOLDEN_U
    z = (z ^ (z >> _S30)) * _M1_U
    z = (z ^ (z >> _S27)) * _M2_U
    return z ^ (z >> _S31)


def pair_hashes(tokens, indices) -> np.ndarray:
    """Per-pair 64-bit hashes of (token, position) pairs; a fold XORs them."""
    t = np.asarray(tokens, dtype=np.uint64)
    i = np.asarray(indices, dtype=np.uint64)
    return _mix64_vec(t * _FOLD_TOK_U + i * _FOLD_IDX_U)


class Fold:
    """Running form of ``prefix_fold``: mix64 of FOLD_INIT XOR the pair hashes.

    XOR is associative and commutative, so pairs can be added a batch at a
    time, the way a KV cache grows, and the digest of the fold plus a
    candidate continuation costs only the continuation.
    """

    def __init__(self):
        self.acc = FOLD_INIT

    def add(self, tokens, indices) -> None:
        if len(tokens) == 1:
            # one pair, as sequential decoding adds: plain ints cost a
            # fraction of the array round trip
            z = int(tokens[0]) * FOLD_TOK + int(indices[0]) * FOLD_IDX
            self.acc ^= mix64(z & MASK64)
            return
        h = pair_hashes(tokens, indices)
        if h.size:
            self.acc ^= int(np.bitwise_xor.reduce(h))

    def digest(self) -> int:
        return mix64(self.acc)

    def continuation_digests(self, tokens, indices) -> List[int]:
        """Digests after adding the first i pairs, for i = 0..n; the fold
        itself is left unchanged."""
        h = pair_hashes(tokens, indices)
        x = np.zeros(h.shape[0] + 1, dtype=np.uint64)
        np.bitwise_xor.accumulate(h, out=x[1:])
        return _mix64_vec(x ^ _U(self.acc)).tolist()


def prefix_fold(tokens: np.ndarray, indices: np.ndarray) -> int:
    """Order-independent 64-bit digest of (token, position) pairs."""
    fold = Fold()
    fold.add(tokens, indices)
    return fold.digest()


def _noise(pos_keys, ctx_keys, c: float, vocab: int) -> np.ndarray:
    """Hashed base noise in [0, 1) along the last axis, blended with the
    context keys' noise at c > 0. Keys are uint64 scalars for one row or
    [N, 1] uint64 arrays for N rows."""
    k = np.arange(vocab, dtype=np.uint64)
    u = _mix64_vec(pos_keys + k * _TOK_SALT_U).astype(np.float64) * _INV_2_64
    if c != 0.0:
        u2 = _mix64_vec(ctx_keys + k * _CTX_SALT_U).astype(np.float64) * _INV_2_64
        u = (1.0 - c) * u + c * u2
    return u


def raw_logits_rows(pos_keys: np.ndarray, ctx_keys: Optional[np.ndarray],
                    c: float, vocab: int, tstars: np.ndarray,
                    gaps: np.ndarray) -> np.ndarray:
    """[N, V] base logits; row n is raw_logits for the n-th key, target and
    gap. ``ctx_keys`` is unused at c = 0.

    Every operation is elementwise, so a row equals the single-row result
    bit for bit.
    """
    u = _noise(pos_keys[:, None], None if ctx_keys is None
               else ctx_keys[:, None], c, vocab)
    u[np.arange(u.shape[0]), tstars] += gaps
    return u


def raw_logits(pos_key: int, ctx_key: int, c: float, vocab: int,
               tstar: int, gap: float) -> np.ndarray:
    """Deterministic base logits: hashed noise plus a gap on the target token.

    The one-row case of ``raw_logits_rows``, on scalar keys and with a
    scalar gap add, so a one-row query builds no index arrays.
    """
    u = _noise(_U(pos_key), _U(ctx_key), c, vocab)
    u[tstar] += gap
    return u
