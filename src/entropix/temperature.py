"""Entropy-to-temperature mapping and the full token sampling pipeline.

Temperature follows T(eps) = t0 * exp(-eps / alpha) + theta: maximal at zero
entropy, decaying toward the floor theta as entropy grows. The pipeline order
is fixed: guidance combine -> entropy read -> temperature rescale -> top-k ->
top-p -> softmax -> categorical draw.
"""

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
    """
    logits = dist.as_logits(cond_logits)
    if uncond_logits is not None:
        logits = dist.cfg_combine(logits, uncond_logits, cfg_scale)
    p = dist.softmax(logits)
    eps = dist.support_entropy(p)  # p is valid by construction
    t = dynamic_temperature(eps, tp)
    if adjust_temperature is not None:
        t = adjust_temperature(t)
    logits = dist.rescale_logits(logits, t)
    if top_k is not None:
        logits = dist.top_k_filter(logits, top_k)
    if top_p is None:
        probs = dist.softmax(logits)
    else:  # the same as softmax(top_p_filter(...)), one exponentiation
        probs = dist.top_p_softmax(logits, top_p)
    if probs.ndim == 1:
        return probs, float(eps), t
    return probs, eps, t


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
