"""The scoring step every decoder shares, and next-token decoding.

``score`` is the paper's one rule for a position: query the oracle, read
the entropy of the guided distribution, pick its temperature and build the
distribution to draw from. Every decoder calls it.
"""

from typing import Callable, List, Optional

import numpy as np

from entropix import dist
from entropix.oracle import Oracle, RunningDigest
from entropix.rng import RngStream
from entropix.temperature import TempParams, pipeline_probs


def score(oracle: Oracle, positions, digests, tp: TempParams,
          top_k: Optional[int] = None, top_p: Optional[float] = None,
          cfg_scale: float = 1.0, kappas=None,
          adjust_temperature: Optional[Callable] = None):
    """(probs, entropy, applied temperature) of positions conditioned on
    their prefix digests; the unconditional query runs only under guidance.

    A sequence of positions is one batched query (``Oracle.logits_rows``),
    one row per position. A single int position, digest and kappa is the
    one-row case: the one-row query (``Oracle.logits_from_digest``) and the
    1-D pipeline, returning a probability vector and two scalars.
    """
    if isinstance(positions, (int, np.integer)):
        query = oracle.logits_from_digest
    else:
        query = oracle.logits_rows
    logits = query(positions, digests, True, kappas)
    uncond = None
    if cfg_scale != 1.0:
        uncond = query(positions, digests, False, kappas)
    return pipeline_probs(logits, uncond, cfg_scale, tp, top_k, top_p,
                          adjust_temperature)


def next_token_generate(oracle: Oracle, length: int, block: int,
                        tp: TempParams, rng: RngStream,
                        top_k: Optional[int] = None,
                        top_p: Optional[float] = None,
                        cfg_scale: float = 1.0):
    """Sequential decoding; returns (tokens, entropies, temperatures).

    With context sensitivity 0 the oracle ignores the prefix, so positions
    are scored ``block`` at a time in one query each, with one uniform per
    position in order, as the one-at-a-time draws take them. Otherwise each
    token conditions on the prefix before it, whose digest grows by one
    pair per token instead of being refolded.
    """
    tokens: List[int] = []
    eps_list: List[float] = []
    temps: List[float] = []
    if oracle.cfg.context_sensitivity == 0.0:
        for start in range(0, length, block):
            positions = range(start, min(start + block, length))
            probs, eps, t = score(oracle, positions, [0] * len(positions), tp,
                                  top_k, top_p, cfg_scale)
            tokens.extend(dist.sample_rows(
                probs, rng.uniforms(len(positions))).tolist())
            eps_list.extend(eps.tolist())
            temps.extend(t.tolist())
        return tokens, eps_list, temps
    running = RunningDigest()
    for pos in range(length):
        probs, eps, t = score(oracle, pos, running.digest(), tp, top_k, top_p,
                              cfg_scale)
        token = dist.sample_categorical(probs, rng)
        running.append((token,))
        tokens.append(token)
        eps_list.append(eps)
        temps.append(float(t))
    return tokens, eps_list, temps
