"""A small numpy reference of the sampling pipeline, written apart from the
program, and the statistics the checks draw from it.

The pipeline order is the paper's: guidance combine, entropy of the guided
softmax, temperature T(eps) = t0 * exp(-eps / alpha) + theta (times the
scale factor, clamped at the floor, in scale decoding), then top-k, top-p
and the final softmax. It is applied row-wise to logits that come from
``Oracle.logits_at`` with the full conditioning prefix, the unbatched query
that refolds the whole prefix.
"""

import numpy as np


def softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def pipeline(cond, uncond, cfg_scale, temp, top_k=None, top_p=None,
             scale=1.0, floor=None):
    """Final probabilities [N, V], entropies [N] and temperatures [N]."""
    t0, alpha, theta = temp
    z = cond if uncond is None else uncond + cfg_scale * (cond - uncond)
    p = softmax(z)
    with np.errstate(divide="ignore", invalid="ignore"):
        eps = -np.where(p > 0, p * np.log(p), 0.0).sum(axis=1)
    t = t0 * np.exp(-eps / alpha) + theta
    if floor is not None:
        t = np.maximum(t * scale, floor)
    z = z / t[:, None]
    keep = np.ones(z.shape, dtype=bool)
    if top_k is not None:
        # rank of each entry in descending order, ties to the lower index
        rank = np.argsort(np.argsort(-z, axis=1, kind="stable"), axis=1)
        keep &= rank < top_k
    if top_p is not None:
        q = softmax(np.where(keep, z, -np.inf))
        order = np.argsort(-q, axis=1, kind="stable")
        q_sorted = np.take_along_axis(q, order, axis=1)
        # keep an entry while the mass ranked above it is still below p
        above = np.cumsum(q_sorted, axis=1) - q_sorted
        kept = np.zeros_like(keep)
        np.put_along_axis(kept, order, above < top_p, axis=1)
        keep &= kept
    return softmax(np.where(keep, z, -np.inf)), eps, t


def _z(values, mean, var) -> float:
    gap = float(values.sum() - mean.sum())
    spread = float(np.sqrt(var.sum()))
    if spread == 0.0:
        return 0.0 if abs(gap) < 1e-9 else np.inf
    return gap / spread


def law_z(probs: np.ndarray, tokens: np.ndarray):
    """Two z-scores of the drawn tokens against the rows of ``probs``.

    If token n is drawn from p_n, then
    - p_n(x_n) has mean sum(p_n^2) and variance
      sum(p_n^3) - sum(p_n^2)^2, which draws that favour likely or
      unlikely tokens move;
    - the midpoint of x_n's step in p_n's CDF, P(X < x_n) + p_n(x_n) / 2,
      has mean 1/2 and variance (1 - sum(p_n^3)) / 12, which draws that
      favour low or high token ids move.
    Sums over many rows are close to normal.
    """
    rows = np.arange(len(tokens))
    p2 = (probs ** 2).sum(axis=1)
    p3 = (probs ** 3).sum(axis=1)
    drawn = probs[rows, tokens]
    below = np.cumsum(probs, axis=1)[rows, tokens] - drawn
    return (_z(drawn, p2, p3 - p2 ** 2),
            _z(below + drawn / 2, np.full(len(rows), 0.5), (1 - p3) / 12))
