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

import operator
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Tuple

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

    def _row_inputs(self, pos, conditional: bool, kappas=None):
        """(position keys, targets, gaps) of the rows of one query kind at
        the positions ``pos``, which are checked: every kernel input but
        the context keys. ``pos`` is an int64 array, derived in array
        arithmetic, or one int, derived by the same steps in Python ints
        (the kernels' scalar ``mix64`` for their ``_mix64_vec``), which
        costs a fraction of a one-element array. ``kappas`` overrides the
        profile lookup per row, or is the one row's kappa."""
        if isinstance(pos, int):
            if pos < 0:
                raise ValueError("position out of range")
            # mix64 reduces its argument mod 2^64, as the array wraps
            mix, key = _kernels_py.mix64, pos * POS_SALT
            if kappas is None:
                kappas = float(self._kappa_flat[pos % self._n])
            gaps = GAP_MAX * kappas
        else:
            if pos.shape[0] and pos.min() < 0:
                raise ValueError("position out of range")
            mix = _kernels_py._mix64_vec
            key = pos.astype(np.uint64) * np.uint64(POS_SALT)
            if kappas is None:
                kappas = self._kappa_flat[pos % self._n]
            gaps = GAP_MAX * np.asarray(kappas, dtype=np.float64)
        pk = mix((self.cfg.seed & _kernels_py.MASK64) ^ mix(key))
        if not conditional:
            pk = mix(pk ^ UNCOND_SALT)
        return pk, pk % self.cfg.vocab, gaps

    def position_inputs(self, positions: range,
                        kinds: Sequence[bool] = (True, False),
                        kappas: Optional[Sequence[float]] = None
                        ) -> "PositionInputs":
        """The prefix-free inputs of the rows at the consecutive
        ``positions``, one table per query kind of ``kinds`` (True is
        conditional): the one derivation that ``logits_rows`` and
        ``logits_kinds`` read instead of deriving their own. Every kind's
        position noise is hashed in one kernel call. ``kappas`` overrides
        the profile lookup per position.
        """
        if positions.step != 1:
            raise ValueError("positions must be consecutive")
        pos = np.arange(positions.start, positions.stop, dtype=np.int64)
        pk, tstars, gaps = (np.stack(col) for col in zip(
            *(self._row_inputs(pos, kind, kappas) for kind in kinds)))
        noise = _kernels_py.raw_logits_rows(
            pk.reshape(-1), None, self.cfg.context_sensitivity,
            self.cfg.vocab).reshape(len(kinds), pos.shape[0], -1)
        return PositionInputs(positions.start, tuple(kinds), pk, tstars,
                              gaps, noise)

    def logits_kinds(self, linear_pos: int, digest: int,
                     kinds: Sequence[bool] = (True, False),
                     kappa: Optional[float] = None,
                     inputs: Optional[Tuple] = None) -> np.ndarray:
        """[k, V] logits of one position conditioned on ``digest``, a row
        per query kind of ``kinds``: under guidance, the conditional and
        unconditional pair in one call of the kernel ``raw_logits``.

        ``inputs`` is the position's entry of ``PositionInputs.rows`` for
        these kinds, read, never written. Without it the query derives the
        position's keys, targets and gaps (``_row_inputs`` on one int, with
        ``kappa`` overriding the profile), and the kernel hashes the
        position noise itself. Only the context keys depend on
        the prefix, one Python ``mix64`` per row.
        """
        if inputs is None:
            pos = operator.index(linear_pos)
            keys, tstars, gaps = zip(*(self._row_inputs(pos, kind, kappa)
                                       for kind in kinds))
            noise = None
        else:
            keys, tstars, gaps, noise = inputs
        mix64 = _kernels_py.mix64
        return _kernels_py.raw_logits(
            keys, [mix64(pk ^ digest) for pk in keys],
            self.cfg.context_sensitivity, self.cfg.vocab, tstars, gaps, noise)

    def logits_from_digest(self, linear_pos: int, digest: int,
                           conditional: bool = True,
                           kappa: Optional[float] = None) -> np.ndarray:
        """As logits_at, but with the conditioning digest precomputed: the
        one-kind case of ``logits_kinds``. Decoders that score several
        positions at once call the batched query instead."""
        return self.logits_kinds(linear_pos, digest, (conditional,),
                                 kappa)[0]

    def logits_rows(self, positions: Sequence[int], digests,
                    conditional: bool = True,
                    kappas: Optional[Sequence[float]] = None,
                    inputs: Optional["PositionInputs"] = None) -> np.ndarray:
        """[N, V] logits in one query: row n is position ``positions[n]``
        conditioned on the prefix digest ``digests[n]``, or on ``digests``
        itself when it is one digest that every row shares.

        A Jacobi window makes this single call for its slots, as one
        forward pass would, with one digest per slot. A decode step that
        scores many positions on one shared digest (every open mask
        position, every position of a scale) is still one logical query,
        counted once in ``model_invocations``, but ``decode.score_draw``
        makes it a cache block of rows at a time, one call per block; the
        array arithmetic broadcasts the shared digest. ``kappas`` overrides
        the profile lookup per row. ``inputs`` is a ``position_inputs`` span
        that covers every position and holds this query kind: the query
        reads its rows' keys, targets, gaps and noise from it and never
        writes it, so only the context term is hashed, and one span serves
        any number of queries. Otherwise every row's inputs are derived
        with array operations, as for ``logits_kinds``, and
        ``raw_logits_rows`` is bit-identical to ``raw_logits``, so row n
        equals ``logits_from_digest(positions[n], digests[n])``.
        """
        cfg = self.cfg
        pos = np.asarray(positions, dtype=np.int64)
        n = pos.shape[0]
        digests = np.asarray(digests, dtype=np.uint64)
        if digests.ndim and digests.shape != (n,):
            raise ValueError("positions and digests must have equal length")
        if kappas is not None and len(kappas) != n:
            raise ValueError("one kappa per position")
        if inputs is None:
            pk, tstars, gaps = self._row_inputs(pos, conditional, kappas)
            noise = rows = None
        else:
            if kappas is not None:
                raise ValueError("the inputs fix the kappas")
            rows = pos - inputs.start
            if n and (rows.min() < 0 or pos.max() >= inputs.stop):
                raise ValueError("inputs must have a row for every position")
            j = inputs.kinds.index(conditional)
            pk, tstars, gaps = (inputs.keys[j][rows], inputs.targets[j][rows],
                                inputs.gaps[j][rows])
            noise = inputs.noise[j]
        ctx = _kernels_py._mix64_vec(pk ^ digests) \
            if cfg.context_sensitivity != 0.0 else None
        return _kernels_py.raw_logits_rows(
            pk, ctx, cfg.context_sensitivity, cfg.vocab, tstars, gaps, noise,
            rows)


class PositionInputs(NamedTuple):
    """Every input of the rows at positions ``start`` to ``start + n - 1``
    that does not depend on the prefix, one table per query kind of
    ``kinds`` (True is conditional): position keys and targets, uint64
    [k, n]; gaps, float64 [k, n]; and position noise, the ``(1 - c) * u``
    half of each row, float64 [k, n, V]. Each kind's rows are contiguous,
    so a batched query gathers them without copying the table. Made by
    ``Oracle.position_inputs`` and only read by the queries.
    """
    start: int
    kinds: Tuple[bool, ...]
    keys: np.ndarray
    targets: np.ndarray
    gaps: np.ndarray
    noise: np.ndarray

    @property
    def stop(self) -> int:
        """One past the span's last position."""
        return self.start + self.keys.shape[1]

    def rows(self):
        """Per position, the ``inputs`` of ``Oracle.logits_kinds``: its
        kinds' keys, targets and gaps as lists of Python numbers, and its
        [k, V] noise."""
        return zip(self.keys.T.tolist(), self.targets.T.tolist(),
                   self.gaps.T.tolist(), self.noise.transpose(1, 0, 2))
