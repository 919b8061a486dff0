"""Deterministic synthetic logits oracle with a controllable entropy profile.

Each grid position gets hashed base noise in [0, 1) plus a logit gap of
``GAP_MAX * kappa`` on a position-specific target token: kappa = 0 leaves a
near-uniform (high entropy) distribution, kappa = 1 a near-deterministic one.
``context_sensitivity`` blends in noise keyed by a digest of the conditioning
prefix, so logits react to previously decoded tokens; at 0 the oracle is
stationary and prefix-independent. Decoders keep that digest in a
``RunningDigest`` (from the kernels), appending the pairs they commit;
``digest_of`` folds a whole prefix at once.
"""

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from entropix import _kernels_py
from entropix._kernels_py import RunningDigest  # noqa: F401 (re-exported)

GAP_MAX = 30.0

POS_SALT = 0xD1B54A32D192ED03
UNCOND_SALT = 0x6A09E667F3BCC909

# Reserved conditioning id for not-yet-decoded grid positions; never emitted.
def mask_token(vocab: int) -> int:
    return vocab


@dataclass(frozen=True)
class OracleConfig:
    vocab: int = 64
    shape: Tuple[int, int] = (16, 16)
    profile: Optional[np.ndarray] = None  # kappa map, defaults to all zeros
    seed: int = 0
    context_sensitivity: float = 0.0

    def __post_init__(self):
        h, w = self.shape
        if self.vocab < 2 or h < 1 or w < 1:
            raise ValueError("vocab must be >= 2 and shape positive")
        if not 0.0 <= self.context_sensitivity <= 1.0:
            raise ValueError("context_sensitivity must be in [0, 1]")
        prof = self.profile
        if prof is None:
            prof = np.zeros(self.shape)
        prof = np.asarray(prof, dtype=np.float64)
        if prof.shape != self.shape:
            raise ValueError("profile shape must match the grid shape")
        if np.any(prof < 0) or np.any(prof > 1):
            raise ValueError("kappa values must lie in [0, 1]")
        object.__setattr__(self, "profile", prof)


def profile_rect(shape: Tuple[int, int], background_kappa: float,
                 foreground_kappa: float,
                 rect: Tuple[int, int, int, int]) -> np.ndarray:
    """Constant-kappa map with a rectangular foreground patch."""
    h, w = shape
    top, left, rh, rw = rect
    for v in (background_kappa, foreground_kappa):
        if not 0.0 <= v <= 1.0:
            raise ValueError("kappa values must lie in [0, 1]")
    if top < 0 or left < 0 or rh < 0 or rw < 0 or top + rh > h or left + rw > w:
        raise ValueError("rect out of bounds")
    prof = np.full(shape, background_kappa)
    prof[top:top + rh, left:left + rw] = foreground_kappa
    return prof


class Oracle:
    """Stateless logits source; every query is a pure function of its inputs."""

    def __init__(self, cfg: OracleConfig):
        self.cfg = cfg
        h, w = cfg.shape
        self._n = h * w
        self._kappa_flat = cfg.profile.reshape(-1)

    def kappa_at(self, linear_pos: int) -> float:
        # positions beyond the grid wrap onto the profile
        return float(self._kappa_flat[linear_pos % self._n])

    def _pos_key(self, linear_pos: int, conditional: bool) -> int:
        mix64, mask = _kernels_py.mix64, _kernels_py.MASK64
        key = mix64((self.cfg.seed ^ mix64(linear_pos * POS_SALT & mask)) & mask)
        if not conditional:
            key = mix64(key ^ UNCOND_SALT)
        return key

    def logits_at(self, linear_pos: int, prefix_tokens: Sequence[int],
                  prefix_indices: Optional[Sequence[int]] = None,
                  conditional: bool = True,
                  kappa: Optional[float] = None) -> np.ndarray:
        """Length-V logits for one position given conditioning tokens.

        ``prefix_indices`` defaults to 0..len-1 (sequential decoding); grid and
        scale decoders pass explicit linear indices. Entries equal to the
        reserved mask id are dropped from the digest.
        """
        if self.cfg.context_sensitivity != 0.0:
            digest = self.digest_of(prefix_tokens, prefix_indices)
        else:
            digest = 0
        return self.logits_from_digest(linear_pos, digest, conditional, kappa)

    def digest_of(self, prefix_tokens: Sequence[int],
                  prefix_indices: Optional[Sequence[int]] = None) -> int:
        """Conditioning digest with reserved mask-id entries dropped."""
        if prefix_indices is None:
            prefix_indices = range(len(prefix_tokens))
        mid = mask_token(self.cfg.vocab)
        toks = np.asarray(prefix_tokens, dtype=np.int64)
        idxs = np.asarray(prefix_indices, dtype=np.int64)
        if toks.shape != idxs.shape:
            raise ValueError("tokens and indices must have equal length")
        if toks.size and (toks.min() < 0 or toks.max() > mid):
            raise ValueError("invalid token id in prefix")
        keep = toks != mid
        return _kernels_py.prefix_fold(toks[keep].astype(np.uint64),
                                       idxs[keep].astype(np.uint64))

    def _row_args(self, linear_pos: int, digest: int, conditional: bool,
                  kappa: Optional[float]) -> Tuple[int, int, int, float]:
        """Kernel inputs for one row: position key, context key, target
        token and logit gap."""
        if linear_pos < 0:
            raise ValueError("position out of range")
        pk = self._pos_key(linear_pos, conditional)
        ctx = _kernels_py.mix64(pk ^ digest) \
            if self.cfg.context_sensitivity != 0.0 else 0
        if kappa is None:
            kappa = self.kappa_at(linear_pos)
        return pk, ctx, pk % self.cfg.vocab, GAP_MAX * kappa

    def logits_from_digest(self, linear_pos: int, digest: int,
                           conditional: bool = True,
                           kappa: Optional[float] = None,
                           noise: Optional[np.ndarray] = None) -> np.ndarray:
        """As logits_at, but with the conditioning digest precomputed.

        This is the one-row case of ``logits_rows``, run by the one-row
        kernel ``raw_logits``; decoders that score several positions at once
        call the batched query instead. ``noise`` is this position's row of
        ``position_noise``, read, never written.
        """
        pk, ctx, tstar, gap = self._row_args(linear_pos, digest, conditional,
                                             kappa)
        return _kernels_py.raw_logits(pk, ctx, self.cfg.context_sensitivity,
                                      self.cfg.vocab, tstar, gap, noise)

    def _pos_keys(self, pos: np.ndarray, conditional: bool) -> np.ndarray:
        """``_pos_key`` of every position of an int64 array, in array
        arithmetic."""
        U, mix = np.uint64, _kernels_py._mix64_vec
        pk = mix(U(self.cfg.seed & _kernels_py.MASK64)
                 ^ mix(pos.astype(U) * U(POS_SALT)))
        if not conditional:
            pk = mix(pk ^ U(UNCOND_SALT))
        return pk

    def position_noise(self, positions: Sequence[int],
                       conditional: bool = True) -> np.ndarray:
        """[N, V] prefix-independent half of the logits rows of
        ``positions``: ``(1 - c) * u`` of each position key.

        Passed back as ``noise`` to ``logits_rows`` (or a row of it to
        ``logits_from_digest``), it saves that query the position hash. The
        queries only read it, so one array serves any number of them.
        """
        pos = np.asarray(positions, dtype=np.int64)
        if pos.shape[0] and pos.min() < 0:
            raise ValueError("position out of range")
        return _kernels_py.raw_logits_rows(
            self._pos_keys(pos, conditional), None,
            self.cfg.context_sensitivity, self.cfg.vocab)

    def logits_rows(self, positions: Sequence[int], digests,
                    conditional: bool = True,
                    kappas: Optional[Sequence[float]] = None,
                    noise: Optional[np.ndarray] = None) -> np.ndarray:
        """[N, V] logits in one query: row n is position ``positions[n]``
        conditioned on the prefix digest ``digests[n]``, or on ``digests``
        itself when it is one digest that every row shares.

        A decode step that scores many positions (every open mask position,
        every Jacobi window slot, every position of a scale) makes this
        single call, as one forward pass would. Mask and scale decoding
        pass one shared digest, which the array arithmetic broadcasts;
        Jacobi windows pass one digest per slot. ``kappas`` overrides the
        profile lookup per row. ``noise`` is a table of position noise of
        the same query kind, ``position_noise(range(M))`` with M above
        every position: the query reads row p of it for position p and
        never writes it, so a decoder hashes its grid's noise once. Every
        row's position key, context key, target and gap are derived with
        array operations: the wrapping 64-bit arithmetic that ``_row_args``
        does on Python ints for the one-row query. ``raw_logits_rows`` is
        bit-identical to ``raw_logits``, so row n equals
        ``logits_from_digest(positions[n], digests[n])``.
        """
        cfg = self.cfg
        pos = np.asarray(positions, dtype=np.int64)
        n = pos.shape[0]
        U = np.uint64
        digests = np.asarray(digests, dtype=U)
        if digests.ndim and digests.shape != (n,):
            raise ValueError("positions and digests must have equal length")
        if kappas is not None and len(kappas) != n:
            raise ValueError("one kappa per position")
        if n and pos.min() < 0:
            raise ValueError("position out of range")
        if noise is not None and (noise.ndim != 2
                                  or noise.shape[1] != cfg.vocab
                                  or n and pos.max() >= noise.shape[0]):
            raise ValueError("noise must have a row for every position")
        pk = self._pos_keys(pos, conditional)
        ctx = _kernels_py._mix64_vec(pk ^ digests) \
            if cfg.context_sensitivity != 0.0 else None
        if kappas is None:
            kappas = self._kappa_flat[pos % self._n]
        gaps = GAP_MAX * np.asarray(kappas, dtype=np.float64)
        return _kernels_py.raw_logits_rows(
            pk, ctx, cfg.context_sensitivity, cfg.vocab, pk % U(cfg.vocab),
            gaps, noise, pos)
