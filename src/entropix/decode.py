"""The scoring step every decoder shares, and next-token decoding.

``score`` is the paper's one rule for a position: query the oracle, read
the entropy of the guided distribution, pick its temperature and build the
distribution to draw from. Every decoder calls it. ``score_draw`` scores
and draws the many positions of one shared digest (a mask step, a scale, a
grid of a stationary oracle) a cache block of rows at a time. Every
``score`` call is one oracle query, and one kernel call, for all its query
kinds: under guidance the conditional and unconditional rows are one
batch. Next-token decoding under context scores one position at a time
(``Oracle.logits_kinds``) until a run of positions drew their drafts, and
then verifies the next slots in one batched window, emitting exactly the
one-position loop's tokens.
"""

from typing import Callable, Optional

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
    their prefix digests; the unconditional kind is scored only under
    guidance.

    Each call makes exactly one oracle query, for every kind of
    ``query_kinds(cfg_scale)``, and passes its first stack and, under
    guidance, its second to ``pipeline_probs``. A sequence of positions is
    the batched query (``Oracle.logits_rows``), one row per position and
    kind; ``digests`` is one digest per position, or one int that every
    position shares (mask, scale and next-token decoding without context
    pass it once). A single int position, digest and kappa is the one-row
    case (``Oracle.logits_kinds``) and the 1-D pipeline, returning a
    probability vector and two scalars. Either way ``inputs`` is an
    ``Oracle.position_inputs`` span of those kinds that holds the
    positions, read by the query, or None for it to derive its own.

    A sequence returns the whole [N, V] probability stack, so of the
    decoders only windows pass one: Jacobi windows (at most ``window``
    rows) and next-token decoding's verified windows (at most a span of
    ``_BLOCK_ELEMS // vocab`` rows).
    Decoders that score many positions on one digest call ``score_draw``,
    which runs this on a block of rows at a time.
    """
    kinds = query_kinds(cfg_scale)
    query = oracle.logits_kinds if isinstance(positions, (int, np.integer)) \
        else oracle.logits_rows
    logits = query(positions, digests, kinds, kappas, inputs)
    return pipeline_probs(logits[0], logits[1] if len(kinds) > 1 else None,
                          cfg_scale, tp, top_k, top_p, adjust_temperature)


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
    """Sequential decoding; returns (tokens, entropies, temperatures),
    one length-``length`` array each.

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
    kind (512 positions at V = 64) at a time. The uniforms are drawn once,
    ``rng.uniforms(length)``, one per position in position order: the
    stream of drawing them a span or a token at a time. Every position also
    gets a draft: the token the last window drew for it, if that window
    scored it, or else, when a span first holds the position, the
    first-ranked token of its prefix-free conditional logits (``_drafts``).
    A draft takes no random draw. Uniforms, drafts, tokens, entropies and
    temperatures are kept by absolute position, one array each.

    While fewer than ``_MIN_WINDOW`` slots in a row drew their drafts, a
    token is one one-row step: one query of its kinds on the span (one
    kernel call for the guidance pair), the 1-D pipeline and
    ``dist.inverse_cdf``. Such a step extends the run only where its draw,
    its draft, had probability at least 1/2: at high entropy a draw matches
    its draft by chance, and windows opened on such matches emitted about
    1.7 slots each. After that, the next slots are scored as one window,
    as a Jacobi window is: one batched ``score`` on the digests of the
    prefix plus the drafts before each slot
    (``RunningDigest.continuation``), each row drawn with its own uniform
    (``dist._sample_rows``). The window emits every slot up
    to and including the first whose draw differs from its draft. Each
    emitted slot's drafts before it equal the draws there, so its digest is
    the true prefix's, and its draw the one-position loop's; the drafts
    decide only how many slots a query emits. The draws past the first
    mismatch become the next slots' drafts, and decoding returns to one-row
    steps. A window whose slots all verified doubles the next one, up to
    the span's length and the remaining length; a window that would run
    past its span re-derives the span from its first slot, keeping the
    drafts of the positions the old span held.

    The draws run ``dist``'s draw cores without revalidating: the rows
    come from ``pipeline_probs``, which builds valid distributions.
    """
    # every position's uniform, token, entropy and temperature
    u = rng.uniforms(length)
    tokens = np.empty(length, dtype=np.int64)
    eps_all, temps = np.empty(length), np.empty(length)
    if oracle.cfg.context_sensitivity == 0.0:
        block = oracle.cfg.profile.size  # one grid's positions per query
        for start in range(0, length, block):
            at = slice(start, min(start + block, length))
            tokens[at], _, eps_all[at], temps[at] = score_draw(
                oracle, range(at.start, at.stop), 0, u[at], tp, top_k,
                top_p, cfg_scale)
        return tokens, eps_all, temps
    running = RunningDigest()
    kinds = query_kinds(cfg_scale)
    chunk = max(1, _BLOCK_ELEMS // oracle.cfg.vocab)
    # every position's draft once a span has held it; span covers the
    # positions up to stop
    drafts = np.empty(length, dtype=np.int64)
    pos = stop = streak = 0
    width = _MIN_WINDOW
    while pos < length:
        m = min(width, chunk, length - pos) if streak >= _MIN_WINDOW else 1
        if pos + m > stop:
            span = oracle.position_inputs(
                range(pos, min(pos + chunk, length)), kinds)
            drafts[stop:span.stop] = _drafts(span, stop - pos)
            stop = span.stop
        if m == 1:
            probs, eps, t = score(oracle, pos, running.digest(), tp, top_k,
                                  top_p, cfg_scale, inputs=span)
            token = dist.inverse_cdf(probs, u[pos])
            running.append((token,), (pos,))
            # a draw that matches its draft by chance, as high-entropy
            # rows' draws do, predicts nothing about the next slots
            sure = token == drafts[pos] and probs[token] >= 0.5
            streak = streak + 1 if sure else 0
            tokens[pos], eps_all[pos], temps[pos] = token, eps, t
            pos += 1
            continue
        positions = np.arange(pos, pos + m)
        folds = running.continuation(drafts[pos:pos + m], positions)
        probs, eps, t = score(oracle, positions, _mix64_vec(folds[:m]), tp,
                              top_k, top_p, cfg_scale, inputs=span)
        drawn = dist._sample_rows(probs, u[pos:pos + m])
        miss = np.flatnonzero(drawn != drafts[pos:pos + m])
        if miss.size:
            # the slots past the first mismatch conditioned on a wrong
            # draft: their draws are only the next slots' drafts
            n = int(miss[0]) + 1
            running.advance(folds[n - 1], int(drawn[n - 1]), pos + n - 1)
            drafts[pos + n:pos + m] = drawn[n:]
            streak, width = 0, _MIN_WINDOW
        else:
            n = m
            running.advance(folds[m])
            width = min(2 * width, chunk)
        at = slice(pos, pos + n)
        tokens[at], eps_all[at], temps[at] = drawn[:n], eps[:n], t[:n]
        pos += n
    return tokens, eps_all, temps


def _drafts(span: PositionInputs, lo: int) -> np.ndarray:
    """The draft of each position of ``span`` from its row ``lo`` on: the
    first-ranked token of the position's prefix-free conditional logits,
    its position noise plus the gap on its target (the prefix adds at most
    the context sensitivity to each logit)."""
    logits = span.noise[0, lo:].copy()  # kinds[0] is the conditional kind
    logits[np.arange(logits.shape[0]), span.targets[0, lo:]] += \
        span.gaps[0, lo:]
    return logits.argmax(axis=1)
