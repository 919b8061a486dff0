"""The scoring step every decoder shares, and next-token decoding.

``score`` is the paper's one rule for a position: query the oracle, read
the entropy of the guided distribution, pick its temperature and build the
distribution to draw from. Every decoder calls it. ``score_draw`` scores
and draws the many positions of one shared digest (a mask step, a scale, a
grid of a stationary oracle) a cache block of rows at a time. Next-token
decoding under context scores one position at a time (one query,
``Oracle.logits_kinds``, gives its conditional and unconditional rows)
until a run of positions drew their drafts, and then verifies the next
slots in one batched window, emitting exactly the one-position loop's
tokens.
"""

from typing import Callable, List, Optional

import numpy as np

from entropix import dist
from entropix._kernels_py import _BLOCK_ELEMS, _mix64_vec
from entropix.oracle import Oracle, PositionInputs, RunningDigest
from entropix.rng import RngStream
from entropix.temperature import TempParams, pipeline_probs

# The fewest slots in a row that must draw their drafts before next-token
# decoding under context scores the next slots as one window: a window of
# fewer costs more per emitted slot than one-row steps (BENCH_25.json,
# "crossover").
_MIN_WINDOW = 4


def score(oracle: Oracle, positions, digests, tp: TempParams,
          top_k: Optional[int] = None, top_p: Optional[float] = None,
          cfg_scale: float = 1.0, kappas=None,
          adjust_temperature: Optional[Callable] = None, inputs=None):
    """(probs, entropy, applied temperature) of positions conditioned on
    their prefix digests; the unconditional query runs only under guidance.

    A sequence of positions is one batched query (``Oracle.logits_rows``)
    per query kind, one row per position; ``digests`` is one digest per
    position, or one int that every position shares (mask, scale and
    next-token decoding without context pass it once). ``inputs`` is then
    an ``Oracle.position_inputs`` span of the positions and the query
    kinds that both queries read, or None for them to derive their own. A
    single int position, digest and kappa is the one-row case: one query of
    both kinds (``Oracle.logits_kinds``) and the 1-D pipeline, returning a
    probability vector and two scalars. ``inputs`` is then the position's
    entry of ``PositionInputs.rows`` for those kinds, or None.

    A sequence returns the whole [N, V] probability stack, so of the
    decoders only windows pass one: Jacobi windows (at most ``window``
    rows) and next-token decoding's verified windows (at most a span of
    ``_BLOCK_ELEMS // vocab`` rows).
    Decoders that score many positions on one digest call ``score_draw``,
    which runs this on a block of rows at a time.
    """
    guided = cfg_scale != 1.0
    if isinstance(positions, (int, np.integer)):
        logits = oracle.logits_kinds(positions, digests,
                                     query_kinds(cfg_scale), kappas, inputs)
        uncond = logits[1] if guided else None
        logits = logits[0]
    else:
        logits = oracle.logits_rows(positions, digests, True, kappas, inputs)
        uncond = oracle.logits_rows(positions, digests, False, kappas,
                                    inputs) if guided else None
    return pipeline_probs(logits, uncond, cfg_scale, tp, top_k, top_p,
                          adjust_temperature)


def score_draw(oracle: Oracle, positions, digest: int, u: np.ndarray,
               tp: TempParams, top_k: Optional[int] = None,
               top_p: Optional[float] = None, cfg_scale: float = 1.0,
               kappas=None, adjust_temperature: Optional[Callable] = None,
               inputs=None):
    """(tokens, their probabilities, entropy, applied temperature), one
    length-N array each, of the N ``positions`` that share the prefix
    ``digest``, where row n draws with the uniform ``u[n]``: ``score``,
    then ``dist._sample_rows``.

    Both run on ``_BLOCK_ELEMS // vocab`` rows at a time (512 at V = 64,
    the hash kernel's block), read at call time, and each block writes its
    slice of the outputs. So the working memory is one block's [rows, V]
    stacks, and no [N, V] stack is built. Every pipeline operation is
    row-wise and each draw reads only its own uniform, so the outputs equal
    one ``score`` of all N rows drawn by ``_sample_rows``, bit for bit.
    ``kappas``, if given, is one per position; ``inputs`` is as for
    ``score``.
    """
    positions = np.asarray(positions, dtype=np.int64)
    n = positions.shape[0]
    tokens = np.empty(n, dtype=np.int64)
    p_token, eps, t = np.empty(n), np.empty(n), np.empty(n)
    rows = max(1, _BLOCK_ELEMS // oracle.cfg.vocab)
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        probs, eps[lo:hi], t[lo:hi] = score(
            oracle, positions[lo:hi], digest, tp, top_k, top_p, cfg_scale,
            None if kappas is None else kappas[lo:hi], adjust_temperature,
            inputs)
        drawn = dist._sample_rows(probs, u[lo:hi])
        tokens[lo:hi] = drawn
        p_token[lo:hi] = probs[np.arange(hi - lo), drawn]
    return tokens, p_token, eps, t


def query_kinds(cfg_scale: float):
    """The query kinds ``score`` makes at this guidance scale (True is
    conditional): the unconditional one only under guidance."""
    return (True, False) if cfg_scale != 1.0 else (True,)


def next_token_generate(oracle: Oracle, length: int, tp: TempParams,
                        rng: RngStream, top_k: Optional[int] = None,
                        top_p: Optional[float] = None,
                        cfg_scale: float = 1.0):
    """Sequential decoding; returns (tokens, entropies, temperatures).

    With context sensitivity 0 the oracle ignores the prefix, so positions
    are scored a grid's worth at a time, one logical query each
    (``score_draw``, a cache block at a time), all on digest 0, with one
    uniform per position in order, as the one-at-a-time draws take them.

    Otherwise each token conditions on the prefix before it, whose digest
    grows by one pair per token instead of being refolded, and the tokens
    are those of the one-position loop (score the position on the prefix's
    digest, draw with the position's uniform, append), bit for bit. Only
    the context keys depend on the prefix: the rest of each position's
    inputs (``Oracle.position_inputs``, its position noise included) is
    derived for a span of up to ``_BLOCK_ELEMS`` noise values per query
    kind (512 positions at V = 64) at a time, with the span's uniforms, one
    per position in position order, so ``length`` in all. Every position
    also gets a draft: the token the last window drew for it, if that
    window scored it, or else the first-ranked token of its prefix-free
    conditional logits (``_drafts``). A draft takes no random draw.

    While fewer than ``_MIN_WINDOW`` slots in a row drew their drafts, a
    token is one one-row step: one query of its kinds (one kernel call for
    the guidance pair), the 1-D pipeline and ``dist.inverse_cdf``. Such a
    step extends the run only where its draw, its draft, had probability at
    least 1/2: at high entropy a draw matches its draft by chance, and
    windows opened on such matches emitted about 1.7 slots each. After
    that, the next slots are scored as one window, as a Jacobi window is:
    one batched ``score`` on the digests of the prefix plus the drafts
    before each slot (``RunningDigest.continuation``), each row drawn with
    its own uniform (``dist._sample_rows``). The window emits every slot up
    to and including the first whose draw differs from its draft. Each
    emitted slot's drafts before it equal the draws there, so its digest is
    the true prefix's, and its draw the one-position loop's; the drafts
    decide only how many slots a query emits. The draws past the first
    mismatch become the next slots' drafts, and decoding returns to one-row
    steps. A window whose slots all verified doubles the next one, up to
    the span's length and the remaining length; a window that would run
    past its span re-derives the span from its first slot, keeping the
    uniforms and drafts of the positions the old span held.

    The draws run ``dist``'s draw cores without revalidating: the rows
    come from ``pipeline_probs``, which builds valid distributions.
    """
    tokens: List[int] = []
    eps_list: List[float] = []
    temps: List[float] = []
    if oracle.cfg.context_sensitivity == 0.0:
        block = oracle.cfg.profile.size  # one grid's positions per query
        for start in range(0, length, block):
            positions = range(start, min(start + block, length))
            drawn, _, eps, t = score_draw(
                oracle, positions, 0, rng.uniforms(len(positions)), tp,
                top_k, top_p, cfg_scale)
            tokens.extend(drawn.tolist())
            eps_list.extend(eps.tolist())
            temps.extend(t.tolist())
        return tokens, eps_list, temps
    running = RunningDigest()
    kinds = query_kinds(cfg_scale)
    chunk = max(1, _BLOCK_ELEMS // oracle.cfg.vocab)
    # the span [start, stop) of positions whose inputs, uniforms and drafts
    # are held; rows are its one-row inputs, listed when a step needs them
    start = stop = 0
    u = np.empty(0)
    drafts = np.empty(0, dtype=np.int64)
    rows = None
    pos = streak = 0
    width = _MIN_WINDOW
    while pos < length:
        m = min(width, chunk, length - pos) if streak >= _MIN_WINDOW else 1
        if pos + m > stop:
            span = oracle.position_inputs(
                range(pos, min(pos + chunk, length)), kinds)
            keep = pos - start
            u = np.concatenate((u[keep:], rng.uniforms(span.stop - stop)))
            drafts = np.concatenate((drafts[keep:],
                                     _drafts(span, stop - pos)))
            start, stop, rows = pos, span.stop, None
        i = pos - start
        if m == 1:
            if rows is None:
                rows = list(span.rows())
            probs, eps, t = score(oracle, pos, running.digest(), tp, top_k,
                                  top_p, cfg_scale, inputs=rows[i])
            token = dist.inverse_cdf(probs, u[i])
            running.append((token,), (pos,))
            # a draw that matches its draft by chance, as high-entropy
            # rows' draws do, predicts nothing about the next slots
            sure = token == drafts[i] and probs[token] >= 0.5
            streak = streak + 1 if sure else 0
            tokens.append(token)
            eps_list.append(eps)
            temps.append(float(t))
            pos += 1
            continue
        positions = np.arange(pos, pos + m)
        folds = running.continuation(drafts[i:i + m], positions)
        probs, eps, t = score(oracle, positions, _mix64_vec(folds[:m]), tp,
                              top_k, top_p, cfg_scale, inputs=span)
        drawn = dist._sample_rows(probs, u[i:i + m])
        miss = np.flatnonzero(drawn != drafts[i:i + m])
        if miss.size:
            # the slots past the first mismatch conditioned on a wrong
            # draft: their draws are only the next slots' drafts
            n = int(miss[0]) + 1
            running.advance(folds[n - 1], int(drawn[n - 1]), pos + n - 1)
            drafts[i + n:i + m] = drawn[n:]
            streak, width = 0, _MIN_WINDOW
        else:
            n = m
            running.advance(folds[m])
            width = min(2 * width, chunk)
        tokens.extend(drawn[:n].tolist())
        eps_list.extend(eps[:n].tolist())
        temps.extend(t[:n].tolist())
        pos += n
    return tokens, eps_list, temps


def _drafts(span: PositionInputs, lo: int) -> np.ndarray:
    """The draft of each position of ``span`` from its row ``lo`` on: the
    first-ranked token of the position's prefix-free conditional logits,
    its position noise plus the gap on its target (the prefix adds at most
    the context sensitivity to each logit)."""
    logits = span.noise[0, lo:].copy()  # kinds[0] is the conditional kind
    logits[np.arange(logits.shape[0]), span.targets[0, lo:]] += \
        span.gaps[0, lo:]
    return logits.argmax(axis=1)
