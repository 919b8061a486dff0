"""Categorical distribution primitives over a discrete codebook.

A distribution is a length-V float64 logits vector. Filters mark removed
entries with ``EXCLUDED`` (-inf), which softmax maps to exactly zero, so
filters compose without special cases. All logarithms are natural.

The logits primitives also take an [N, V] stack of rows and act on each row
along the last axis; a row's result equals the 1-D result bit for bit, so a
decoder may score a whole batch of positions in one call.

The top-k and top-p filters select by threshold. Each row's cut value is
read from its sorted values: the k-th highest logit, or the probability
that brings the descending cumulative mass to p. The row keeps the entries
at or above the cut. Where more entries tie at the cut than places are
left, the lower indices win, exactly as in a stable ranking; only such rows
do extra work.

``np.exp`` has slow lanes, and a softmax at a low temperature lives in
them. Where the result is subnormal (inputs from about -708 down to
-745.13) a lane costs 130-215 ns, against about 1.2 ns for a normal
result; where it underflows to 0 it costs about 20 ns, and at -inf about
7 ns (BENCH_12).
At scale decoding's floor temperature most lanes of a row fall there. So
the softmax of an [N, V] stack exponentiates lanes clamped at
``_EXP_FAST_MIN`` (-700, still fast; -708 is not), writes 0 below
``_EXP_ZERO_BELOW`` (-746, past the last input whose exp rounds above 0)
and recomputes the few lanes between the two with ``np.exp`` alone, so
every value is np.exp's own. A 1-D row keeps plain ``np.exp``: there the
extra passes cost more than they save. ``top_p_softmax`` exponentiates
once where top-p followed by softmax would exponentiate twice.
"""

import numpy as np

from entropix.rng import RngStream

EXCLUDED = -np.inf

PROB_SUM_TOL = 1e-9

GUMBEL_CLIP = 1e-12

# np.exp's fast lanes end near -708 (see the module docstring); bounds
# measured by benchmarks/bench_numpy_lanes.py (BENCH_12.json, "numpy_lanes")
_EXP_FAST_MIN = -700.0  # every input from here up stays on the fast path
_EXP_ZERO_BELOW = -746.0  # exp is exactly 0 below this (2^-1075 at -745.13)


def as_logits(values) -> np.ndarray:
    a = np.asarray(values, dtype=np.float64)
    if a.ndim not in (1, 2) or a.shape[-1] < 1:
        raise ValueError("logits must be a 1-D vector or an [N, V] stack")
    return a


def _exp_stack(x: np.ndarray) -> None:
    """np.exp of every value of x, in place, bit for bit, with every lane on
    np.exp's fast path.

    Lanes below ``_EXP_FAST_MIN`` run from the floor, and are then set: to
    0 below ``_EXP_ZERO_BELOW``, where exp is exactly 0, and to np.exp of
    their own value between the two bounds, a band that is computed alone.
    NaN and -inf lanes fall through the comparisons and the clamp as
    np.exp would take them (-inf counts as low and becomes 0).
    """
    low = x < _EXP_FAST_MIN
    if not low.any():
        np.exp(x, out=x)
        return
    band = np.flatnonzero(low & (x >= _EXP_ZERO_BELOW))
    flat = x.reshape(-1)
    exact = np.exp(flat[band])
    np.maximum(x, _EXP_FAST_MIN, out=x)  # NaN stays NaN
    np.exp(x, out=x)
    x *= np.logical_not(low, out=low)  # a multiply by 0 or 1, not a scatter
    flat[band] = exact


def _shifted_exp(a: np.ndarray):
    """(exp(a - row max), its sum along the last axis, the row max):
    softmax before the division. A 1-D row runs np.exp as it is; a stack
    runs ``_exp_stack``."""
    # a 1-D input reduces to numpy scalars, which cost less per operation
    # than one-element arrays; a stack keeps the axis to broadcast per row.
    # The ufunc reductions are what max() and sum() run, minus a wrapper.
    rows = a.ndim > 1
    m = np.maximum.reduce(a, axis=-1, keepdims=rows)
    finite = np.isfinite(m)
    if not (finite.all() if rows else finite):
        raise ValueError("empty support")
    # in place on one fresh array: a large stack then pays for a single
    # allocation rather than three
    e = np.subtract(a, m)
    if rows:
        _exp_stack(e)
    else:
        np.exp(e, out=e)  # EXCLUDED -> exp(-inf) = 0
    return e, np.add.reduce(e, axis=-1, keepdims=rows), m


def softmax(logits) -> np.ndarray:
    """Stabilized softmax; EXCLUDED entries get probability exactly 0."""
    e, total, _ = _shifted_exp(as_logits(logits))
    e /= total
    return e


def validate_probs(probs) -> np.ndarray:
    p = np.asarray(probs, dtype=np.float64)
    # negated comparisons, so that NaN fails them
    if p.ndim != 1 or p.size < 1 or not p.min() >= 0 \
            or not abs(p.sum() - 1.0) <= PROB_SUM_TOL:
        raise ValueError("invalid distribution")
    return p


def support_entropy(probs):
    """Entropy along the last axis, unvalidated, summed over each support.

    The 1-D form is ``-(nz * log nz).sum()`` over the positive entries nz.
    A row of a stack gives the same value bit for bit. Pairwise summation
    groups terms by position, so dropped entries matter: a row or stack
    with full support is summed in one pass, with no gather, and otherwise
    the rows with m positive entries of a stack are summed together as an
    [rows, m] stack of those entries.
    """
    p = np.asarray(probs, dtype=np.float64)
    if p.min(initial=np.inf) > 0.0:  # full support: nothing to drop
        return -(p * np.log(p)).sum(axis=-1)
    if p.ndim == 1:
        nz = p[p > 0.0]
        return -(nz * np.log(nz)).sum()
    pos = p > 0.0
    size = np.add.reduce(pos, axis=-1)
    out = np.empty(p.shape[0])
    for m in np.unique(size):
        r = np.flatnonzero(size == m)
        nz = p[r][pos[r]].reshape(r.size, m)
        out[r] = -(nz * np.log(nz)).sum(axis=-1)
    return out


def entropy(probs) -> float:
    """Shannon entropy in nats, with the 0*log(0) = 0 convention."""
    return float(support_entropy(validate_probs(probs)))


def rescale_logits(logits, temperature) -> np.ndarray:
    """Divide by the temperature: a scalar, or one per row of a stack."""
    if isinstance(temperature, np.ndarray) and temperature.ndim:
        t = temperature[:, None]
        low = t.min(initial=np.inf)
    else:
        t = low = temperature
    if not low > 0:  # NaN fails too
        raise ValueError("nonpositive temperature")
    return as_logits(logits) / t  # EXCLUDED stays -inf


def _keep_highest(score, ranked, n_keep) -> np.ndarray:
    """The mask of the n_keep highest-scoring entries of each row; ties at
    the cut keep the lower index.

    ``ranked`` is ``score`` sorted ascending along the last axis, and
    ``n_keep`` is in [1, V]: a scalar, or one per row. The cut is the row's
    n_keep-th highest score, and the row keeps the entries at or above it.
    That keeps too many only where the score just below the cut ties with
    it; such rows drop their highest-index ties, which is where a stable
    ranking puts them, with a cumsum over the ties. No other row pays for
    that. (Where n_keep = V, "just below" wraps to the highest score; the
    row keeps every entry and drops none.)
    """
    i = score.shape[-1] - n_keep  # the cut's place in the ascending order
    if score.ndim == 1:
        cut = ranked[i]
        keep = score >= cut
        if ranked[i - 1] == cut:
            tied = score == cut
            excess = np.count_nonzero(keep) - n_keep
            keep ^= tied & (tied.cumsum() > tied.sum() - excess)
        return keep
    rows = np.arange(score.shape[0])
    cut = ranked[rows, i][:, None]
    keep = score >= cut
    over = np.flatnonzero(ranked[rows, i - 1] == cut[:, 0])
    if over.size:
        tied = score[over] == cut[over]
        excess = np.add.reduce(keep[over], axis=-1) - (
            n_keep[over] if np.ndim(n_keep) else n_keep)
        keep[over] ^= tied & (tied.cumsum(axis=-1)
                              > tied.sum(axis=-1, keepdims=True)
                              - excess[:, None])
    return keep


def top_k_filter(logits, k: int) -> np.ndarray:
    """Keep the k highest logits; ties at the cut keep the lower index.

    The cut is each row's k-th highest logit, read from the sorted row.
    """
    a = as_logits(logits)
    if k < 1:
        raise ValueError("top-k requires k >= 1")
    if k >= a.shape[-1]:
        return a.copy()
    return np.where(_keep_highest(a, np.sort(a, axis=-1), k), a, EXCLUDED)


def top_p_filter(logits, p: float) -> np.ndarray:
    """Keep the smallest high-probability prefix with cumulative mass >= p.

    The prefix follows the probability ranking, ties at the cut keeping the
    lower index. Its length counts the entries, in descending order, whose
    cumulative mass is still below p, plus one; its last probability is the
    cut.
    """
    a = as_logits(logits)
    _check_top_p(p)
    if p == 1.0:
        return a.copy()
    return np.where(_top_p_keep(a, p)[0], a, EXCLUDED)


def top_p_softmax(logits, p: float) -> np.ndarray:
    """softmax(top_p_filter(logits, p)), bit for bit, with one
    exponentiation instead of two.

    The filtered row's softmax subtracts the highest kept logit. Where that
    is the row's maximum, its exponentials are the kept entries of the
    exponentials top-p ranked by, so those are summed and divided again.
    A row whose top probabilities tie while their logits differ can lose
    its maximum to a lower-index tie; only such a row is recomputed.
    """
    a = as_logits(logits)
    _check_top_p(p)
    if p == 1.0:
        return softmax(a)
    keep, e, m = _top_p_keep(a, p)
    e *= keep
    rows = a.ndim > 1
    e /= np.add.reduce(e, axis=-1, keepdims=rows)
    held = np.logical_or.reduce(keep & (a == m), axis=-1)
    if rows:
        stale = np.flatnonzero(~held)
        if stale.size:
            e[stale] = softmax(np.where(keep[stale], a[stale], EXCLUDED))
    elif not held:
        e = softmax(np.where(keep, a, EXCLUDED))
    return e


def _check_top_p(p: float) -> None:
    if not 0.0 < p <= 1.0:
        raise ValueError("top-p requires p in (0, 1]")


def _top_p_keep(a: np.ndarray, p: float):
    """(mask of the top-p entries, the exponentials exp(a - row max) they
    were ranked by, the row max)."""
    e, total, m = _shifted_exp(a)
    q = e / total
    ranked = np.sort(q, axis=-1)
    # the cumulative mass in descending order, short of the last entry:
    # counting the sums below p is searchsorted-left, and leaving the
    # total out keeps all V where rounding leaves it below p
    cum = ranked[..., :0:-1].cumsum(axis=-1)
    n_keep = np.add.reduce(cum < p, axis=-1) + 1
    return _keep_highest(q, ranked, n_keep), e, m


def cfg_combine(cond, uncond, scale: float) -> np.ndarray:
    """Guidance combination: uncond + scale * (cond - uncond)."""
    c = as_logits(cond)
    u = as_logits(uncond)
    if c.shape != u.shape:
        raise ValueError("mismatched vocabulary sizes")
    if not (np.isfinite(c).all() and np.isfinite(u).all()):
        raise ValueError("guidance inputs must have no excluded entries")
    return u + scale * (c - u)


def sample_categorical(probs, rng: RngStream) -> int:
    """Inverse-CDF draw over ascending index order (bit-exact contract)."""
    p = validate_probs(probs)
    u = rng.uniform()
    cum = p.cumsum()
    idx = int(cum.searchsorted(u, side="right"))
    # guard the top edge: cum[-1] may be 1 - eps, and trailing zero-mass
    # entries must never be returned
    if idx >= p.shape[0]:
        idx = p.shape[0] - 1
    while idx > 0 and p[idx] == 0.0:
        idx -= 1
    return idx


def sample_rows(probs, u) -> np.ndarray:
    """sample_categorical for each row of an [N, V] stack, with the row's
    uniform supplied: row n draws with u[n].

    Vectorized over rows, with the same top-edge and zero-mass guards.
    ``sample_categorical`` stays a scalar form of its own because decoders
    whose draws depend on earlier draws (next-token decoding, the Jacobi
    accept loop) draw one token at a time, and the row-wise form costs a
    single draw about twice as much.
    """
    p = np.asarray(probs, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    if p.ndim != 2 or p.shape[1] < 1 or u.shape != p.shape[:1]:
        raise ValueError("need one uniform per row of an [N, V] stack")
    # every row must pass validate_probs, NaN included
    if p.size and (not p.min() >= 0
                   or not (abs(p.sum(axis=1) - 1.0) <= PROB_SUM_TOL).all()):
        raise ValueError("invalid distribution")
    cum = np.cumsum(p, axis=1)
    # searchsorted-right on a nondecreasing cum: count the entries <= u
    idx = np.minimum((cum <= u[:, None]).sum(axis=1), p.shape[1] - 1)
    for r in np.flatnonzero(p[np.arange(p.shape[0]), idx] == 0.0):
        while idx[r] > 0 and p[r, idx[r]] == 0.0:
            idx[r] -= 1
    return idx


def gumbel_noise(rng: RngStream) -> float:
    """Standard Gumbel(0,1) via -log(-log(u)), u clamped away from {0, 1}:
    the one-draw case of ``gumbel_rows``."""
    return float(gumbel_rows(rng.uniform()))


def gumbel_rows(u) -> np.ndarray:
    """Gumbel(0,1) values for an array of supplied uniforms, elementwise."""
    return -np.log(-np.log(np.clip(u, GUMBEL_CLIP, 1.0 - GUMBEL_CLIP)))
