"""The scoring step every decoder shares, and next-token decoding.

``score`` is the paper's one rule for a position: query the oracle, read
the entropy of the guided distribution, pick its temperature and build the
distribution to draw from. Every decoder calls it. Next-token decoding
under context scores one position per token: one query
(``Oracle.logits_kinds``) gives its conditional and unconditional rows,
from inputs derived a chunk of positions ahead.
"""

from typing import Callable, List, Optional

import numpy as np

from entropix import dist
from entropix._kernels_py import _BLOCK_ELEMS
from entropix.oracle import Oracle, RunningDigest
from entropix.rng import RngStream
from entropix.temperature import TempParams, pipeline_probs


def score(oracle: Oracle, positions, digests, tp: TempParams,
          top_k: Optional[int] = None, top_p: Optional[float] = None,
          cfg_scale: float = 1.0, kappas=None,
          adjust_temperature: Optional[Callable] = None, noise=None):
    """(probs, entropy, applied temperature) of positions conditioned on
    their prefix digests; the unconditional query runs only under guidance.

    A sequence of positions is one batched query (``Oracle.logits_rows``)
    per query kind, one row per position; ``digests`` is one digest per
    position, or one int that every position shares (mask, scale and
    next-token decoding without context pass it once). ``noise`` is then
    the (conditional, unconditional) ``Oracle.position_noise`` tables the
    queries read, or None for them to hash their own. A single int
    position, digest and kappa is the one-row case: one query of both
    kinds (``Oracle.logits_kinds``) and the 1-D pipeline, returning a
    probability vector and two scalars. ``noise`` is then the position's
    ``Oracle.position_inputs`` entry for those kinds, or None.
    """
    guided = cfg_scale != 1.0
    if isinstance(positions, (int, np.integer)):
        logits = oracle.logits_kinds(positions, digests, _KINDS[guided],
                                     kappas, noise)
        uncond = logits[1] if guided else None
        logits = logits[0]
    else:
        cond_noise, uncond_noise = noise or (None, None)
        logits = oracle.logits_rows(positions, digests, True, kappas,
                                    cond_noise)
        uncond = oracle.logits_rows(positions, digests, False, kappas,
                                    uncond_noise) if guided else None
    return pipeline_probs(logits, uncond, cfg_scale, tp, top_k, top_p,
                          adjust_temperature)


# the query kinds of one position, by whether guidance is on
_KINDS = {False: (True,), True: (True, False)}


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
    context keys depend on that prefix: the rest of each token's inputs
    (``Oracle.position_inputs``, its position noise included) is derived
    for a chunk of about ``_BLOCK_ELEMS`` noise values per query kind (512
    positions at V = 64) at a time, and each token makes one query of its
    kinds, one kernel call for the guidance pair.
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
    kinds = _KINDS[cfg_scale != 1.0]
    chunk = max(1, _BLOCK_ELEMS // oracle.cfg.vocab)
    for start in range(0, length, chunk):
        span = range(start, min(start + chunk, length))
        for pos, inputs in zip(span, oracle.position_inputs(span, kinds)):
            probs, eps, t = score(oracle, pos, running.digest(), tp, top_k,
                                  top_p, cfg_scale, noise=inputs)
            token = dist.sample_categorical(probs, rng)
            running.append((token,), (pos,))
            tokens.append(token)
            eps_list.append(eps)
            temps.append(float(t))
    return tokens, eps_list, temps
