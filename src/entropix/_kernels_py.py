"""Numpy kernels for the synthetic logits oracle.

The hash is plain splitmix64 over wrapping 64-bit arithmetic and the float
mapping is a single multiply by 2^-64, so every output is exact and
platform-independent (pinned by golden values in ``tests/test_kernels.py``).

One noise helper, ``_noise_into``, serves both logits kernels: the
unblocked ``raw_logits`` on the rows of one position, and the batched
``raw_logits_rows`` one block of rows at a time. Every hash step on a block
runs in place on two scratch buffers that stay in cache. Run over the whole
batch, each step would allocate a fresh [N, V] array, and the kernel's time
would go on memory rather than arithmetic.

A row's noise is ``(1 - c) * H(position key) + c * H(context key)``, and
only the context key depends on the prefix. ``raw_logits_rows`` called with
no context keys and no gaps returns the first half alone, the position
noise; both kernels take it back as ``noise``, read-only: they start each
row from it, skip the position hash and add the context term and the gap
in the usual order, so the row is the same bit for bit. The batched kernel
gathers each block's rows of it (``noise_rows``) into its output itself.
Mask decoding hashes the position noise of the whole grid once and reads
the open rows of it at every step; next-token and Jacobi decoding under
context hash it a chunk of positions at a time, both query kinds
together: next-token decoding passes each token's [k, V] rows to one
``raw_logits`` call, and a Jacobi window reads its rows of the chunk.

Turning a hash into a float is the kernel's slow lane: numpy casts uint64
to float64 at about 7 ns a value on a 32,768-value block, against 1 ns for
an int64 cast and 2.8 ns for the whole splitmix64 mix (BENCH_12), and it
does so twice per row. ``_u64_to_f64`` builds the same double from the
hash's two 32-bit halves with integer and float operations that stay on
fast lanes, about 1.9 ns a value, and rounds once, as the cast does. Its six array
operations cost more than the cast on a small block, so a block
is split only from ``_SPLIT_MIN_ELEMS`` values (64 rows at V = 64) up, the
crossover ``benchmarks/bench_numpy_lanes.py`` measured; smaller blocks (a
Jacobi window, the one-row kernel) keep the cast.

``RunningDigest`` is the one running form of the conditioning fold
``prefix_fold``: every decoder keeps its prefix digest in one, appending the
(token, index) pairs it commits instead of refolding the prefix.
"""

import functools
from typing import List, Optional, Tuple

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
_BLOCK_ELEMS = 1 << 15  # per scratch buffer: 256 KiB of 64-bit values
# the smallest block, in values, that converts uint64 to float64 from its
# two halves rather than by numpy's cast (BENCH_12.json, "numpy_lanes")
_SPLIT_MIN_ELEMS = 1 << 12

_U = np.uint64
_GOLDEN_U, _M1_U, _M2_U = _U(GOLDEN), _U(MIX_M1), _U(MIX_M2)
_S27, _S30, _S31 = _U(27), _U(30), _U(31)
_TOK_SALT_U, _CTX_SALT_U = _U(TOK_SALT), _U(CTX_SALT)
_FOLD_TOK_U, _FOLD_IDX_U = _U(FOLD_TOK), _U(FOLD_IDX)
_S32, _LOW32 = _U(32), _U(0xFFFFFFFF)
# the bit patterns of 2^84 and 2^52: OR-ed onto a 32-bit half, they give
# the doubles 2^84 + half * 2^32 and 2^52 + half
_EXP84, _EXP52 = _U(0x4530000000000000), _U(0x4330000000000000)
_SPLIT_BIAS = 2.0 ** 84 + 2.0 ** 52


def mix64(z: int) -> int:
    """splitmix64 finalizer on a 64-bit value."""
    z = (z + GOLDEN) & MASK64
    z = ((z ^ (z >> 30)) * MIX_M1) & MASK64
    z = ((z ^ (z >> 27)) * MIX_M2) & MASK64
    return z ^ (z >> 31)


def _mix64_into(z: np.ndarray, t: np.ndarray) -> None:
    """mix64 of each value of the uint64 array z, written over z; t is
    uint64 scratch of z's shape."""
    z += _GOLDEN_U
    np.right_shift(z, _S30, out=t)
    z ^= t
    z *= _M1_U
    np.right_shift(z, _S27, out=t)
    z ^= t
    z *= _M2_U
    np.right_shift(z, _S31, out=t)
    z ^= t


def _u64_to_f64(z: np.ndarray, t: np.ndarray) -> np.ndarray:
    """float64 of each value of the uint64 array z, bit for bit as numpy's
    cast, returned as a float view of t; t is uint64 scratch of z's shape,
    and z is overwritten.

    z = hi * 2^32 + lo with 32-bit halves. The doubles 2^84 + hi * 2^32 and
    2^52 + lo are exact and built by OR-ing each half onto an exponent's
    bit pattern; subtracting 2^84 + 2^52 from the first is exact too, and
    adding the second rounds the true value z once, to nearest even, as the
    cast does.
    """
    np.right_shift(z, _S32, out=t)
    t |= _EXP84
    z &= _LOW32
    z |= _EXP52
    f = t.view(np.float64)
    f -= _SPLIT_BIAS
    f += z.view(np.float64)
    return f


def _mix64_vec(z: np.ndarray) -> np.ndarray:
    """mix64 of each value of the uint64 array z, as a new array; z is
    left unchanged."""
    z = z.copy()
    _mix64_into(z, np.empty_like(z))
    return z


def pair_hashes(tokens, indices) -> np.ndarray:
    """Per-pair 64-bit hashes of (token, position) pairs; a fold XORs them."""
    t = np.asarray(tokens, dtype=np.uint64)
    i = np.asarray(indices, dtype=np.uint64)
    return _mix64_vec(t * _FOLD_TOK_U + i * _FOLD_IDX_U)


def _pair_hash(token: int, index: int) -> int:
    """``pair_hashes`` of one pair, in Python ints: a fraction of the
    array round trip."""
    return mix64((int(token) * FOLD_TOK + int(index) * FOLD_IDX) & MASK64)


class RunningDigest:
    """The one running form of the conditioning fold: mix64 of FOLD_INIT
    XOR the hashes of every (token, index) pair appended so far.

    Every decoder keeps its prefix digest here, appending the pairs it
    commits, the way a KV cache grows: next-token and Jacobi decoding at
    sequential indices, mask decoding at the grid positions it accepts,
    scale decoding at each scale's strided positions. XOR is associative
    and commutative, so the digest does not depend on the order or batching
    of the appends and equals ``prefix_fold`` of all the pairs bit for bit,
    and the digest of the prefix plus a candidate continuation costs only
    the continuation. Tokens must be real token ids: the reserved mask id
    is not dropped here.
    """

    def __init__(self):
        self.acc = FOLD_INIT

    def append(self, tokens, indices) -> None:
        if len(tokens) == 1:
            # one pair, as sequential decoding appends
            self.acc ^= _pair_hash(tokens[0], indices[0])
            return
        self.acc ^= int(np.bitwise_xor.reduce(pair_hashes(tokens, indices)))

    def digest(self) -> int:
        return mix64(self.acc)

    def continuation(self, tokens, indices) -> np.ndarray:
        """The folds after appending the first i pairs, for i = 0..n, as
        uint64: the digest after i pairs is mix64 of entry i. The running
        digest is left unchanged; ``advance`` moves it to an entry."""
        h = pair_hashes(tokens, indices)
        x = np.zeros(h.shape[0] + 1, dtype=np.uint64)
        np.bitwise_xor.accumulate(h, out=x[1:])
        x ^= _U(self.acc)
        return x

    def continuation_digests(self, tokens, indices) -> List[int]:
        """Digests after appending the first i pairs, for i = 0..n; the
        running digest itself is left unchanged."""
        return _mix64_vec(self.continuation(tokens, indices)).tolist()

    def advance(self, fold, token: Optional[int] = None,
                index: Optional[int] = None) -> None:
        """Move to ``fold``, an entry of ``continuation``, then append the
        pair (token, index) if one is given: a Jacobi window commits its
        accepted drafts and its tail token this way, hashing each pair
        once."""
        self.acc = int(fold)
        if token is not None:
            self.acc ^= _pair_hash(token, index)


def prefix_fold(tokens: np.ndarray, indices: np.ndarray) -> int:
    """Order-independent 64-bit digest of (token, position) pairs."""
    return mix64(FOLD_INIT
                 ^ int(np.bitwise_xor.reduce(pair_hashes(tokens, indices))))


@functools.lru_cache(maxsize=16)
def _salts(vocab: int) -> Tuple[np.ndarray, np.ndarray]:
    """The per-token salt offsets k * TOK_SALT and k * CTX_SALT, k < vocab;
    read-only, since every call with this vocab shares them."""
    k = np.arange(vocab, dtype=np.uint64)
    tok, ctx = k * _TOK_SALT_U, k * _CTX_SALT_U
    tok.flags.writeable = ctx.flags.writeable = False
    return tok, ctx


def _noise_into(out: np.ndarray, pos_keys, ctx_keys, c: float,
                z: np.ndarray, t: np.ndarray) -> None:
    """Write the hashed noise of one block into ``out``: the position keys'
    noise in [0, 1) along the last axis, blended with the context keys'
    noise at c > 0: ``(1 - c) * u + c * u2``. Keys are uint64 scalars for
    one row or [b, 1] uint64 arrays for b rows; z and t are uint64 scratch
    of ``out``'s shape, overwritten. With ``pos_keys`` None, ``out``
    already holds the position term ``(1 - c) * u``; with ``ctx_keys``
    None, no context term is added.
    """
    tok, ctx = _salts(out.shape[-1])
    if pos_keys is not None:
        np.add(pos_keys, tok, out=z)
        _mix64_into(z, t)
        # (1 - c) * 2^-64 is exact for every c in [0, 1], so one multiply
        # gives (1 - c) * u; c * 2^-64 is subnormal for c below 2^-958, so
        # the context term keeps its two multiplies
        _scaled_into(out, z, t, (1.0 - c) * _INV_2_64)
    if c != 0.0 and ctx_keys is not None:
        np.add(ctx_keys, ctx, out=z)
        _mix64_into(z, t)
        u2 = t.view(np.float64)  # t is free again: reuse it for floats
        _scaled_into(u2, z, t, _INV_2_64)
        u2 *= c
        out += u2


def _scaled_into(out: np.ndarray, z: np.ndarray, t: np.ndarray,
                 scale: float) -> None:
    """out = float64(z) * scale for the uint64 array z, by numpy's cast on
    a small block and by ``_u64_to_f64`` from ``_SPLIT_MIN_ELEMS`` values
    up; z and t are overwritten, and out may be t's float view."""
    if z.size < _SPLIT_MIN_ELEMS:
        np.multiply(z, scale, out=out)
    else:
        np.multiply(_u64_to_f64(z, t), scale, out=out)


def raw_logits_rows(pos_keys: np.ndarray, ctx_keys: Optional[np.ndarray],
                    c: float, vocab: int, tstars: Optional[np.ndarray] = None,
                    gaps: Optional[np.ndarray] = None,
                    noise: Optional[np.ndarray] = None,
                    noise_rows: Optional[np.ndarray] = None) -> np.ndarray:
    """[N, V] base logits; row n is raw_logits for the n-th key, target and
    gap. ``ctx_keys`` is unused at c = 0.

    The noise is written into the output a block of rows at a time, each
    block through the same two scratch buffers of about ``_BLOCK_ELEMS``
    values, so the hash's intermediate arrays stay in cache and no
    operation allocates an [N, V] temporary. Every operation is
    elementwise, so a row equals the single-row result bit for bit.

    With no ``ctx_keys`` and no ``gaps`` the result is the position noise
    ``(1 - c) * u`` alone. Passed back as ``noise`` (float64 [M, V]) with
    ``noise_rows`` (N valid indices into it), it is read, never written:
    each block gathers its rows ``noise[noise_rows[lo:hi]]`` into the
    output, the position hash is skipped and only the context term and the
    gaps are added.
    """
    n = pos_keys.shape[0]
    out = np.empty((n, vocab))
    rows = max(1, _BLOCK_ELEMS // vocab)
    z = np.empty((min(n, rows), vocab), dtype=np.uint64)
    t = np.empty_like(z)
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        if noise is not None:
            # "clip" writes straight into out; the caller checks the rows
            np.take(noise, noise_rows[lo:hi], axis=0, out=out[lo:hi],
                    mode="clip")
        _noise_into(out[lo:hi],
                    None if noise is not None else pos_keys[lo:hi, None],
                    None if ctx_keys is None else ctx_keys[lo:hi, None],
                    c, z[:hi - lo], t[:hi - lo])
    if gaps is not None:
        out[np.arange(n), tstars] += gaps
    return out


def raw_logits(pos_key, ctx_key, c: float, vocab: int, tstar, gap,
               noise: Optional[np.ndarray] = None) -> np.ndarray:
    """Deterministic base logits: hashed noise plus a gap on the target token.

    The unblocked kernel for the rows of one position, on the same noise
    helper as ``raw_logits_rows`` but with no index arrays. Scalar keys,
    target and gap give one 1-D row; k-element keys, targets and gaps give
    its k query kinds' rows (k <= 2, the guidance pair). ``noise``, [k, V]
    rows of ``raw_logits_rows``'s position noise, is read as there: the
    rows start from a copy of it, and ``pos_key`` is not hashed.
    """
    if noise is None:
        keys = np.array(pos_key, dtype=np.uint64)
        out = np.empty(keys.shape + (vocab,))
        keys = keys[..., None]  # one position key per row
    else:
        out, keys = noise.copy(), None
    # one context key per row
    ctx = np.array(ctx_key, dtype=np.uint64).reshape(out.shape[:-1] + (1,))
    z = np.empty(out.shape, dtype=np.uint64)
    _noise_into(out, keys, ctx, c, z, np.empty_like(z))
    if out.ndim == 1:
        out[tstar] += gap
    else:
        for row, (t, g) in enumerate(zip(tstar, gap)):
            out[row, t] += g
    return out
