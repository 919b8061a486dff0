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
from typing import List, Optional, Sequence, Tuple

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

    def _row_inputs(self, pos: np.ndarray, conditional: bool, kappas=None):
        """(position keys, targets, gaps) of the rows of one query kind at
        the int64 positions ``pos``, which are checked: every kernel input
        but the context keys, in array arithmetic. ``kappas`` overrides the
        profile lookup per row."""
        if pos.shape[0] and pos.min() < 0:
            raise ValueError("position out of range")
        U, mix = np.uint64, _kernels_py._mix64_vec
        pk = mix(U(self.cfg.seed & _kernels_py.MASK64)
                 ^ mix(pos.astype(U) * U(POS_SALT)))
        if not conditional:
            pk = mix(pk ^ U(UNCOND_SALT))
        if kappas is None:
            kappas = self._kappa_flat[pos % self._n]
        return (pk, pk % U(self.cfg.vocab),
                GAP_MAX * np.asarray(kappas, dtype=np.float64))

    def position_inputs(self, positions: Sequence[int],
                        kinds: Sequence[bool] = (True, False),
                        kappas: Optional[Sequence[float]] = None) -> List:
        """The prefix-free inputs of ``logits_kinds`` at each position: a
        tuple (keys, targets, gaps, noise) with one entry per query kind of
        ``kinds`` (True is conditional). Keys, targets and gaps are lists of
        Python numbers; noise is the position's [k, V] ``position_noise``,
        hashed for every position and kind in one kernel call.
        """
        pos = np.asarray(positions, dtype=np.int64)
        pk, tstars, gaps = (np.stack(col, axis=1) for col in zip(
            *(self._row_inputs(pos, kind, kappas) for kind in kinds)))
        noise = _kernels_py.raw_logits_rows(
            pk.reshape(-1), None, self.cfg.context_sensitivity,
            self.cfg.vocab).reshape(pos.shape[0], len(kinds), -1)
        return list(zip(pk.tolist(), tstars.tolist(), gaps.tolist(), noise))

    def logits_kinds(self, linear_pos: int, digest: int,
                     kinds: Sequence[bool] = (True, False),
                     kappa: Optional[float] = None,
                     inputs: Optional[Tuple] = None) -> np.ndarray:
        """[k, V] logits of one position conditioned on ``digest``, a row
        per query kind of ``kinds``: under guidance, the conditional and
        unconditional pair in one call of the kernel ``raw_logits``.

        ``inputs`` is the position's entry of ``position_inputs`` for these
        kinds, read, never written; without it the query derives the entry,
        with ``kappa`` overriding the profile. Only the context keys depend
        on the prefix, one Python ``mix64`` per row.
        """
        if inputs is None:
            inputs = self.position_inputs(
                [linear_pos], kinds, None if kappa is None else [kappa])[0]
        keys, tstars, gaps, noise = inputs
        mix64 = _kernels_py.mix64
        return _kernels_py.raw_logits(
            None, [mix64(pk ^ digest) for pk in keys],
            self.cfg.context_sensitivity, self.cfg.vocab, tstars, gaps, noise)

    def logits_from_digest(self, linear_pos: int, digest: int,
                           conditional: bool = True,
                           kappa: Optional[float] = None) -> np.ndarray:
        """As logits_at, but with the conditioning digest precomputed: the
        one-kind case of ``logits_kinds``. Decoders that score several
        positions at once call the batched query instead."""
        return self.logits_kinds(linear_pos, digest, (conditional,),
                                 kappa)[0]

    def position_noise(self, positions: Sequence[int],
                       conditional: bool = True) -> np.ndarray:
        """[N, V] prefix-independent half of the logits rows of
        ``positions``: ``(1 - c) * u`` of each position key.

        Passed back as ``noise`` to ``logits_rows``, it saves that query the
        position hash. The query only reads it, so one array serves any
        number of them.
        """
        pos = np.asarray(positions, dtype=np.int64)
        return _kernels_py.raw_logits_rows(
            self._row_inputs(pos, conditional)[0], None,
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
        row's kernel inputs are derived with array operations, as for
        ``logits_kinds``, and ``raw_logits_rows`` is bit-identical to
        ``raw_logits``, so row n equals
        ``logits_from_digest(positions[n], digests[n])``.
        """
        cfg = self.cfg
        pos = np.asarray(positions, dtype=np.int64)
        n = pos.shape[0]
        digests = np.asarray(digests, dtype=np.uint64)
        if digests.ndim and digests.shape != (n,):
            raise ValueError("positions and digests must have equal length")
        if kappas is not None and len(kappas) != n:
            raise ValueError("one kappa per position")
        if noise is not None and (noise.ndim != 2
                                  or noise.shape[1] != cfg.vocab
                                  or n and pos.max() >= noise.shape[0]):
            raise ValueError("noise must have a row for every position")
        pk, tstars, gaps = self._row_inputs(pos, conditional, kappas)
        ctx = _kernels_py._mix64_vec(pk ^ digests) \
            if cfg.context_sensitivity != 0.0 else None
        return _kernels_py.raw_logits_rows(
            pk, ctx, cfg.context_sensitivity, cfg.vocab, tstars, gaps, noise,
            pos)
