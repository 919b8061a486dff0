"""The scoring step every decoder shares, and next-token decoding.

``score`` is the paper's one rule for a position: query the oracle, read
the entropy of the guided distribution, pick its temperature and build the
distribution to draw from. Every decoder calls it.
"""

from typing import Callable, Iterator, List, Optional, Tuple

import numpy as np

from entropix import dist
from entropix._kernels_py import _BLOCK_ELEMS
from entropix.oracle import Oracle, RunningDigest
from entropix.rng import RngStream
from entropix.temperature import TempParams, pipeline_probs


def score(oracle: Oracle, positions, digests, tp: TempParams,
          top_k: Optional[int] = None, top_p: Optional[float] = None,
          cfg_scale: float = 1.0, kappas=None,
          adjust_temperature: Optional[Callable] = None,
          noise: Tuple = (None, None)):
    """(probs, entropy, applied temperature) of positions conditioned on
    their prefix digests; the unconditional query runs only under guidance.

    A sequence of positions is one batched query (``Oracle.logits_rows``),
    one row per position; ``digests`` is one digest per position, or one
    int that every position shares (mask, scale and next-token decoding
    without context pass it once). A single int position, digest and kappa
    is the one-row case: the one-row query (``Oracle.logits_from_digest``)
    and the 1-D pipeline, returning a probability vector and two scalars.
    ``noise`` is the (conditional, unconditional) ``Oracle.position_noise``
    the queries read (a row for a one-row query, a table indexed by
    position for a batched one), or None for either query to hash its own.
    """
    if isinstance(positions, (int, np.integer)):
        query = oracle.logits_from_digest
    else:
        query = oracle.logits_rows
    logits = query(positions, digests, True, kappas, noise[0])
    uncond = None
    if cfg_scale != 1.0:
        uncond = query(positions, digests, False, kappas, noise[1])
    return pipeline_probs(logits, uncond, cfg_scale, tp, top_k, top_p,
                          adjust_temperature)


def _position_noise_rows(oracle: Oracle, length: int,
                         guided: bool) -> Iterator[Tuple]:
    """(conditional, unconditional) position noise of positions 0, 1, ...,
    length - 1, one pair of rows each; the unconditional row is None
    without guidance. It is hashed a chunk of about ``_BLOCK_ELEMS`` values
    at a time, so the decoder holds one chunk, not the whole sequence."""
    chunk = max(1, _BLOCK_ELEMS // oracle.cfg.vocab)
    for start in range(0, length, chunk):
        span = np.arange(start, min(start + chunk, length))
        cond = oracle.position_noise(span, True)
        uncond = oracle.position_noise(span, False) if guided \
            else [None] * len(span)
        yield from zip(cond, uncond)


def next_token_generate(oracle: Oracle, length: int, tp: TempParams,
                        rng: RngStream, top_k: Optional[int] = None,
                        top_p: Optional[float] = None,
                        cfg_scale: float = 1.0):
    """Sequential decoding; returns (tokens, entropies, temperatures).

    With context sensitivity 0 the oracle ignores the prefix, so positions
    are scored a grid's worth at a time in one query each, all on digest 0,
    with one uniform per position in order, as the one-at-a-time draws take
    them. Otherwise each token conditions on the prefix before it, whose
    digest grows by one pair per token instead of being refolded. Only the
    context half of a row depends on that prefix: the position half is
    hashed in batches of about ``_BLOCK_ELEMS`` values (512 positions at
    V = 64) ahead of the one-row queries, which add the context term and
    the gap to it.
    """
    tokens: List[int] = []
    eps_list: List[float] = []
    temps: List[float] = []
    if oracle.cfg.context_sensitivity == 0.0:
        block = oracle.cfg.profile.size  # one grid's positions per query
        for start in range(0, length, block):
            positions = range(start, min(start + block, length))
            probs, eps, t = score(oracle, positions, 0, tp, top_k, top_p,
                                  cfg_scale)
            tokens.extend(dist.sample_rows(
                probs, rng.uniforms(len(positions))).tolist())
            eps_list.extend(eps.tolist())
            temps.extend(t.tolist())
        return tokens, eps_list, temps
    running = RunningDigest()
    noise_rows = _position_noise_rows(oracle, length, cfg_scale != 1.0)
    for pos, noise in zip(range(length), noise_rows):
        probs, eps, t = score(oracle, pos, running.digest(), tp, top_k, top_p,
                              cfg_scale, noise=noise)
        token = dist.sample_categorical(probs, rng)
        running.append((token,), (pos,))
        tokens.append(token)
        eps_list.append(eps)
        temps.append(float(t))
    return tokens, eps_list, temps
