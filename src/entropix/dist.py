"""Categorical distribution primitives over a discrete codebook.

A distribution is a length-V float64 logits vector. Filters mark removed
entries with ``EXCLUDED`` (-inf), which softmax maps to exactly zero, so
filters compose without special cases. All logarithms are natural.

The logits primitives also take an [N, V] stack of rows and act on each row
along the last axis; a row's result equals the 1-D result bit for bit, so a
decoder may score a whole batch of positions in one call.

Each checked function is its checks plus one call of a private core that
trusts its caller: ``softmax`` runs ``_softmax``, ``cfg_combine``
``_cfg_combine``, ``rescale_logits`` ``_rescale_logits``, ``top_k_filter``
``_top_k_filter``, ``top_p_filter`` ``_top_p_filter``, ``top_p_softmax``
``_top_p_softmax``, ``sample_categorical`` ``inverse_cdf`` and
``sample_rows`` ``_sample_rows``. Each check is stated once (``as_logits``,
``_rows_valid`` and the ``_check_*`` helpers). ``temperature.pipeline_probs``
makes every check of its inputs once, up front, and then runs only the
cores; the decoders draw through the draw cores from rows they built
themselves, which are valid by construction (tests/test_temperature.py
pins that).

The top-k and top-p filters select by threshold. Each row's cut value is
read from its sorted values: the k-th highest logit, or the probability
that brings the descending cumulative mass to p. The row keeps the entries
at or above the cut. Where more entries tie at the cut than places are
left, the lower indices win, exactly as in a stable ranking; only such rows
do extra work. ``top_p_softmax`` is softmax(top_p_filter(...)), with one
shortcut: a row whose largest probability reaches p keeps that entry
alone, and that probability is 1 / (sum of exp(a - row max)), bit for bit,
since the row max's exponential is exp(0) = 1. Such a row is written
one-hot without a sort or a second softmax (``_top_p_softmax`` says why
that is exact); at a low temperature most rows are such.
``pipeline_probs`` decides most of them before the rescale, from the first
softmax's row sum, and both write such rows through ``_one_hot``.

``np.exp`` costs about 7 ns a lane at -inf, against 1.2 ns for a normal
result (BENCH_12). So where top-k is the last filter, ``pipeline_probs``
writes no ``EXCLUDED`` lane: ``_softmax`` multiplies the exponentials by
top-k's keep mask (``_top_k_keep``), which gives a dropped lane +0.0, as
exp(-inf) would, and leaves every row sum the same.
"""

import math

import numpy as np

from entropix.rng import RngStream

EXCLUDED = -np.inf

PROB_SUM_TOL = 1e-9

GUMBEL_CLIP = 1e-12


def as_logits(values) -> np.ndarray:
    """``values`` as float64 logits: a 1-D vector or an [N, V] stack, V >= 1.
    The values are not read here; the softmax refuses a row whose max is
    not finite (NaN, or no finite entry) as an empty support."""
    a = np.asarray(values, dtype=np.float64)
    if a.ndim not in (1, 2) or a.shape[-1] < 1:
        raise ValueError("logits must be a 1-D vector or an [N, V] stack")
    return a


def _shifted_exp(a: np.ndarray, m=None, keep=None):
    """(exp(a - row max), its sum along the last axis, the row max):
    softmax before the division. ``m``, if given, is the row max, in the
    shape this function would compute it: a scalar for a 1-D row, [N, 1]
    for a stack. ``keep``, if given, is a mask of a's shape that the
    exponentials are multiplied by before the sum: a dropped lane's finite
    exponential becomes +0.0, as exp(EXCLUDED) would be, without np.exp's
    slow -inf lanes. A row max that is not finite (no finite entry, NaN, or
    overflow) is refused as an empty support."""
    # a 1-D input reduces to numpy scalars, which cost less per operation
    # than one-element arrays; a stack keeps the axis to broadcast per row.
    # The ufunc reductions are what max() and sum() run, minus a wrapper.
    rows = a.ndim > 1
    if m is None:
        m = np.maximum.reduce(a, axis=-1, keepdims=rows)
    # a numpy scalar is a float, which math checks at a tenth of the cost
    if not (np.isfinite(m).all() if rows else math.isfinite(m)):
        raise ValueError("empty support")
    # in place on one fresh array: a large stack then pays for a single
    # allocation rather than three
    e = np.subtract(a, m)
    np.exp(e, out=e)  # EXCLUDED -> exp(-inf) = 0
    if keep is not None:
        e *= keep
    return e, np.add.reduce(e, axis=-1, keepdims=rows), m


def softmax(logits) -> np.ndarray:
    """Stabilized softmax; EXCLUDED entries get probability exactly 0."""
    return _softmax(as_logits(logits))


def _softmax(a: np.ndarray, m=None, keep=None) -> np.ndarray:
    """``softmax`` of checked logits; ``m`` and ``keep`` as in
    ``_shifted_exp``."""
    e, total, _ = _shifted_exp(a, m, keep)
    e /= total
    return e


def validate_probs(probs) -> np.ndarray:
    p = np.asarray(probs, dtype=np.float64)
    if p.ndim != 1 or p.size < 1 or not _rows_valid(p):
        raise ValueError("invalid distribution")
    return p


def _rows_valid(p: np.ndarray) -> bool:
    """Every row (a 1-D ``p`` is one) is nonnegative and sums to 1 within
    PROB_SUM_TOL; a NaN fails both comparisons."""
    return bool(np.minimum.reduce(p, axis=None, initial=0.0) >= 0 and (
        abs(np.add.reduce(p, axis=-1) - 1.0) <= PROB_SUM_TOL).all())


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
    if np.minimum.reduce(p, axis=None, initial=np.inf) > 0.0:  # full support
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
    _check_temperature(temperature)
    return _rescale_logits(as_logits(logits), temperature)


def _check_temperature(t) -> None:
    low = t.min(initial=np.inf) if isinstance(t, np.ndarray) and t.ndim \
        else t
    if not low > 0:  # NaN fails too
        raise ValueError("nonpositive temperature")


def _rescale_logits(a: np.ndarray, t) -> np.ndarray:
    """``a`` / ``t`` with a checked temperature; a stack's [N, 1] row
    maxima divide as its rows do."""
    if isinstance(t, np.ndarray) and t.ndim:
        t = t[:, None]
    return a / t  # EXCLUDED stays -inf


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
    _check_top_k(k)
    return _top_k_filter(a, k)


def _check_top_k(k: int) -> None:
    if k < 1:
        raise ValueError("top-k requires k >= 1")


def _top_k_filter(a: np.ndarray, k: int) -> np.ndarray:
    """``top_k_filter`` of checked logits. The filtered row keeps its
    maximum, since the cut is at or below it."""
    keep = _top_k_keep(a, k)
    return a.copy() if keep is None else np.where(keep, a, EXCLUDED)


def _top_k_keep(a: np.ndarray, k: int):
    """The mask of the entries that top-k keeps of checked logits, or None
    where k >= V keeps them all."""
    if k >= a.shape[-1]:
        return None
    return _keep_highest(a, np.sort(a, axis=-1), k)


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
    return _top_p_filter(a, _softmax(a), p)


def _top_p_filter(a: np.ndarray, q: np.ndarray, p: float) -> np.ndarray:
    """``top_p_filter`` of checked logits ``a`` whose softmax is ``q``, at
    a checked p < 1."""
    return np.where(_top_p_keep(q, p), a, EXCLUDED)


def top_p_softmax(logits, p: float) -> np.ndarray:
    """softmax(top_p_filter(logits, p)), bit for bit.

    A row whose largest probability reaches p keeps that entry alone, and
    is written one-hot without a sort or a second softmax; the other rows
    run the reference.
    """
    a = as_logits(logits)
    _check_top_p(p)
    return _top_p_softmax(a, p)


def _top_p_softmax(a: np.ndarray, p: float) -> np.ndarray:
    """``top_p_softmax`` of checked logits and p.

    Peaked rows: the row max's exponential is exp(0) = 1 and every other
    one is at most 1, so a row's largest probability is 1 / total, bit for
    bit, and it is the first term of the descending cumulative mass. The
    nucleus is that entry alone exactly when 1 / total >= p. Such a row is
    written one-hot, in the probabilities' own buffer, at the first index
    of its largest probability: the entry the reference keeps, also where
    a lower logit's probability rounds to a tie with it, and which the
    reference's softmax makes exactly 1 (x / x). Only the other rows are
    filtered, by the probabilities already computed, and take a second
    softmax; a stack whose rows all peak runs whole-stack operations alone.
    """
    if p == 1.0:
        return _softmax(a)
    q, total, _ = _shifted_exp(a)
    q /= total  # the softmax, which top-p ranks by
    peaked = np.divide(1.0, total) >= p
    if not peaked.any():
        return _softmax(_top_p_filter(a, q, p))
    rest = np.flatnonzero(~peaked)  # only a stack has rows left here
    if rest.size:
        tail = _softmax(_top_p_filter(a[rest], q[rest], p))
    _one_hot(q, q)
    if rest.size:
        q[rest] = tail
    return q


def _one_hot(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out``, each row (a 1-D ``out`` is one) set one-hot at the first
    index of the largest value of that row of ``x``, which may be ``out``
    itself."""
    top = np.argmax(x, axis=-1, keepdims=True)
    out.fill(0.0)
    np.put_along_axis(out, top, 1.0, axis=-1)
    return out


def _check_top_p(p: float) -> None:
    if not 0.0 < p <= 1.0:
        raise ValueError("top-p requires p in (0, 1]")


def _top_p_keep(q: np.ndarray, p: float) -> np.ndarray:
    """The mask of the top-p entries of the probability rows ``q``: the
    sort path."""
    ranked = np.sort(q, axis=-1)
    # the cumulative mass in descending order, short of the last entry:
    # counting the sums below p is searchsorted-left, and leaving the
    # total out keeps all V where rounding leaves it below p
    cum = ranked[..., :0:-1].cumsum(axis=-1)
    n_keep = np.add.reduce(cum < p, axis=-1) + 1
    return _keep_highest(q, ranked, n_keep)


def cfg_combine(cond, uncond, scale: float) -> np.ndarray:
    """Guidance combination: uncond + scale * (cond - uncond)."""
    c = as_logits(cond)
    u = as_logits(uncond)
    _check_guidance(c, u)
    return _cfg_combine(c, u, scale)


def _check_guidance(c: np.ndarray, u: np.ndarray) -> None:
    if c.shape != u.shape:
        raise ValueError("mismatched vocabulary sizes")
    if not (np.isfinite(c).all() and np.isfinite(u).all()):
        raise ValueError("guidance inputs must have no excluded entries")


def _cfg_combine(c: np.ndarray, u: np.ndarray, scale: float) -> np.ndarray:
    return u + scale * (c - u)


def sample_categorical(probs, rng: RngStream) -> int:
    """Inverse-CDF draw over ascending index order (bit-exact contract)."""
    p = validate_probs(probs)
    return inverse_cdf(p, rng.uniform())


def inverse_cdf(p: np.ndarray, u: float) -> int:
    """The index that the uniform ``u`` selects from ``p``, a validated
    probability vector: ``sample_categorical``'s draw with its uniform
    supplied."""
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
    ``sample_categorical`` and its core ``inverse_cdf`` stay a scalar form
    of their own because draws that depend on earlier draws (next-token
    decoding, a Jacobi window's tail token) come one token at a time, and
    the row-wise form costs a single draw about twice as much. The core,
    for valid rows and one uniform each, is ``_sample_rows``.
    """
    p = np.asarray(probs, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    if p.ndim != 2 or p.shape[1] < 1 or u.shape != p.shape[:1]:
        raise ValueError("need one uniform per row of an [N, V] stack")
    if not _rows_valid(p):
        raise ValueError("invalid distribution")
    return _sample_rows(p, u)


def _sample_rows(p: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``sample_rows`` of rows that pass ``validate_probs``."""
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
