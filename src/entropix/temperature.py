"""Entropy-to-temperature mapping and the full token sampling pipeline.

Temperature follows T(eps) = t0 * exp(-eps / alpha) + theta: maximal at zero
entropy, decaying toward the floor theta as entropy grows. The pipeline order
is fixed: guidance combine -> entropy read -> temperature rescale -> top-k ->
top-p -> softmax -> categorical draw.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from entropix import dist
from entropix.rng import RngStream

_EPS_ROUNDOFF = 1e-9


@dataclass(frozen=True)
class TempParams:
    t0: float
    alpha: float
    theta: float

    def __post_init__(self):
        if self.t0 <= 0 or self.alpha <= 0 or self.theta <= 0:
            raise ValueError("t0, alpha and theta must all be positive")


# Published per-model settings.
PRESETS = {
    "llamagen": TempParams(2.5, 3.0, 0.6),
    "lumina-mgpt": TempParams(2.0, 2.5, 0.6),
    "meissonic": TempParams(2.5, 3.0, 0.7),
    "star": TempParams(2.5, 3.0, 0.5),
}


def preset(model_name: str) -> TempParams:
    try:
        return PRESETS[model_name]
    except KeyError:
        known = ", ".join(sorted(PRESETS))
        raise ValueError(f"unknown preset {model_name!r}; valid names: {known}") from None


def dynamic_temperature(eps, p: TempParams):
    """Map entropy (nats) to a sampling temperature in (theta, t0 + theta].

    ``eps`` may be a scalar or an array of per-row entropies.
    """
    if isinstance(eps, np.ndarray) and eps.ndim:
        low = eps.min(initial=0.0)
    else:
        low = eps
    if low < 0:
        if low < -_EPS_ROUNDOFF:
            raise ValueError("negative entropy")
        eps = np.maximum(eps, 0.0)  # clamp round-off below zero
    return p.t0 * np.exp(-eps / p.alpha) + p.theta


@dataclass(frozen=True)
class SampleTrace:
    token: int
    entropy: float
    temperature: float


def pipeline_probs(cond_logits,
                   uncond_logits=None,
                   cfg_scale: float = 1.0,
                   tp: TempParams = PRESETS["llamagen"],
                   top_k: Optional[int] = None,
                   top_p: Optional[float] = None,
                   adjust_temperature: Optional[Callable] = None):
    """Run the deterministic half of the pipeline.

    Returns (probs, entropy, applied_temperature). ``adjust_temperature``
    maps the dynamic temperature (a scalar, or one per row) to the one
    applied; scale-wise decoding passes its per-scale decay and floor.

    Row-wise: an [N, V] stack of logits (one row per position, as returned
    by ``Oracle.logits_rows``) gives [N, V] probabilities and length-N
    entropy and temperature arrays, each row bit-identical to the 1-D
    result. A 1-D input is the one-row case and returns two scalars.

    The output equals softmax -> support_entropy -> dynamic_temperature ->
    rescale_logits -> top_k_filter -> (top_p_filter ->) softmax of the
    public ``dist`` functions, bit for bit, and its rows are valid
    distributions, so a caller may draw from them with ``dist``'s draw
    cores. Each input is checked once, up front, and then only ``dist``'s
    unchecked cores run. The checks: the logits, and under guidance the
    unconditional logits, are 1-D or [N, V] with V >= 1, of one shape and
    finite; top_k >= 1; top_p in (0, 1]; and, after
    ``adjust_temperature``, every applied temperature is > 0 (NaN fails).
    NaN logits, or a row with no finite logit, leave the first softmax's row
    max not finite and are refused as an empty support.

    Row-max reuse: without top-p the second softmax takes the first one's
    row max m as m / t instead of reducing again. That is its row max bit
    for bit: t > 0 and division rounds monotonically, so m / t is the
    largest rescaled logit, and top-k keeps each row's maximum. Where m / t
    overflows the softmax refuses it as an empty support, as it would the
    row's own max. It also takes top-k's keep mask instead of EXCLUDED
    lanes (``dist._shifted_exp``). Top-p, which can drop the row's maximum,
    runs on the filtered logits and finds its own max
    (``dist.top_p_softmax``).

    Certain nuclei: under top-p with p < 1, a row whose nucleus the first
    softmax already decides is written one-hot at the first index of its
    largest guided logit (``dist._one_hot``, which also writes top-p's
    peaked rows), with no rescale, exponentiation or sort; the chain runs
    once, on every row or on only the other rows. Let S be the row's first
    softmax sum (its max's lane is exp(0) = 1), V its length, m its max and
    t its applied temperature.
    - The other lanes' exponentials x = exp(l - m) sum to at most
      R = S (1 + V 2^-48) - 1. The margin covers, many times over, S's
      summation (at most V - 1 roundings), np.exp's error and the rounding
      of l - m (at most 2^-53 x ln(1/x) <= 2^-53 / e a lane).
    - At t those lanes weigh x^(1/t), which sum to at most
      B = R^(1/t) (V - 1)^max(0, 1 - 1/t): superadditivity for t <= 1, the
      power mean for t > 1.
    - The chain rounds l / t and m / t, which moves a lane's exponent by at
      most 2^-52 (|l - m| + 2 |m|) / t. With |m| <= 2^40 t that adds at
      most 2^-52 a lane and a factor exp(2^-11), so the chain's other lanes
      sum to at most Q = (B + V 2^-48) (1 + 2^-9), which also covers the
      rounding of np.exp, of np.log and of this bound itself.
    The row is certain where Q <= min(1/p - 1, 1) / 2, tested in logs. Then
    the chain's row sum is at most (1 + Q)(1 + V 2^-53), so its reciprocal
    still reaches p and top-p finds the row peaked. Every other lane's
    exponential is at most 1/2, so no lane ties the max's 1, and no logit
    ties the max (that lane would weigh 1). So the chain writes the row
    one-hot at the first index of its largest guided logit: these bytes.
    The cap at 1 matters for small p, where without it a lane just below
    the max could round to the max's exponential and take the one-hot. At
    p = 1 the chain runs the plain softmax, and no row is certain.
    """
    logits = dist.as_logits(cond_logits)
    if uncond_logits is not None:
        uncond = dist.as_logits(uncond_logits)
        dist._check_guidance(logits, uncond)
        logits = dist._cfg_combine(logits, uncond, cfg_scale)
    if top_k is not None:
        dist._check_top_k(top_k)
    if top_p is not None:
        dist._check_top_p(top_p)
    e, total, m = dist._shifted_exp(logits)
    e /= total  # the softmax, valid by construction
    eps = dist.support_entropy(e)
    t = dynamic_temperature(eps, tp)
    if adjust_temperature is not None:
        t = adjust_temperature(t)
    dist._check_temperature(t)
    sure = None if top_p is None else _certain(total, m, t,
                                               logits.shape[-1], top_p)
    rest = None  # the rows left to the chain, where some rows are certain
    chain_t = t
    if sure is not None and sure.any():
        probs = dist._one_hot(logits, e)
        rest = np.flatnonzero(~sure)  # a 1-D row leaves none
        logits = logits[rest]
        chain_t = t[rest] if np.ndim(t) else t
    if rest is None or rest.size:
        logits = dist._rescale_logits(logits, chain_t)
        if top_p is None:
            keep = None if top_k is None else dist._top_k_keep(logits, top_k)
            probs = dist._softmax(logits, dist._rescale_logits(m, t), keep)
        else:
            if top_k is not None:
                logits = dist._top_k_filter(logits, top_k)
            if rest is None:
                probs = dist._top_p_softmax(logits, top_p)
            else:
                probs[rest] = dist._top_p_softmax(logits, top_p)
    if probs.ndim == 1:
        return probs, float(eps), t
    return probs, eps, t


# the margins of the certain-nucleus bound (see pipeline_probs)
_SURE_LANE = 2.0 ** -48  # per lane
_SURE_SLACK = 1.0 + 2.0 ** -9
_SURE_SCALE = 2.0 ** 40  # the largest |row max| / t the bound admits


def _certain(total, m, t, v: int, p: float):
    """Which rows top-p at p must leave one-hot, one bool per row (a 1-D
    row gets one), from the first softmax's row sums ``total`` and maxima
    ``m``, the applied temperature t and the row length v: the test of
    ``pipeline_probs``'s docstring; None where p leaves no row certain (at
    p = 1, say)."""
    cap = 0.5 * min(1.0 / p - 1.0, 1.0) / _SURE_SLACK - v * _SURE_LANE
    if cap <= 0.0:
        return None
    if np.ndim(total):
        total, m = total[:, 0], m[:, 0]
    x = np.log(total * (1.0 + v * _SURE_LANE) - 1.0) / t
    if v > 2:  # the power mean's factor, for t > 1
        x = x + np.maximum(0.0, (1.0 - 1.0 / t) * math.log(v - 1))
    return (x <= math.log(cap)) & (np.abs(m) <= _SURE_SCALE * t)


def sample_entropy_aware(cond_logits,
                         uncond_logits=None,
                         cfg_scale: float = 1.0,
                         tp: TempParams = PRESETS["llamagen"],
                         top_k: Optional[int] = None,
                         top_p: Optional[float] = None,
                         rng: Optional[RngStream] = None) -> SampleTrace:
    """Sample one token with entropy-adapted temperature; record what was used."""
    if rng is None:
        raise ValueError("an RngStream is required")
    probs, eps, t = pipeline_probs(cond_logits, uncond_logits, cfg_scale,
                                   tp, top_k, top_p)
    token = dist.sample_categorical(probs, rng)
    return SampleTrace(token=token, entropy=eps, temperature=float(t))
