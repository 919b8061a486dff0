"""Coarse-to-fine decoding over a ladder of grid resolutions.

Per-scale temperature decays linearly around the middle scale:
T_s = T * (1 - beta * (s - S // 2)), clamped at a small positive floor since
the linear form goes negative for late scales.
"""

from dataclasses import dataclass
from functools import partial
from typing import List, Optional, Sequence, Tuple

import numpy as np

from entropix import dist
from entropix.decode import score
from entropix.oracle import Oracle, RunningDigest
from entropix.rng import RngStream
from entropix.temperature import TempParams

# Position-key stride separating scales in the oracle's index space.
SCALE_STRIDE = 1 << 24


@dataclass(frozen=True)
class ScaleTempParams:
    beta: float
    s_count: int
    floor_temperature: float = 0.05

    def __post_init__(self):
        if not 0.0 <= self.beta < 1.0:
            raise ValueError("beta must be in [0, 1)")
        if self.s_count < 1:
            raise ValueError("need at least one scale")
        if self.floor_temperature <= 0:
            raise ValueError("floor_temperature must be positive")


def scale_temperature(temperature, s: int, sp: ScaleTempParams):
    """Decayed temperature for 1-based scale index s; always > 0.

    ``temperature`` may be a scalar or an array of per-row temperatures.
    """
    if not 1 <= s <= sp.s_count:
        raise ValueError("scale index out of range")
    if np.any(np.asarray(temperature) <= 0):
        raise ValueError("nonpositive temperature")
    raw = temperature * (1.0 - sp.beta * (s - sp.s_count // 2))
    return np.maximum(raw, sp.floor_temperature)


def scale_generate(oracle: Oracle, ladder: Sequence[Tuple[int, int]],
                   tp: TempParams, sp: ScaleTempParams, rng: RngStream,
                   top_k: Optional[int] = None, top_p: Optional[float] = None,
                   cfg_scale: float = 1.0):
    """Decode every scale in ladder order, each conditioned on all coarser ones.

    All positions of a scale share one conditioning prefix, so each scale is
    scored in one batch (``decode.score``) on that prefix's one digest, with
    one uniform drawn per position in row-major order. Besides its outputs,
    the loop carries only the coarser scales' ``RunningDigest``.

    Returns (list of token grids, list of entropy maps, per-scale mean entropy,
    applied-temperature list).
    """
    if len(ladder) == 0:
        raise ValueError("ladder must be nonempty")
    if len(ladder) != sp.s_count:
        raise ValueError("ladder length must equal the scale count")
    grids: List[np.ndarray] = []
    entropy_maps: List[np.ndarray] = []
    mean_entropy: List[float] = []
    temps: List[float] = []
    running = RunningDigest()  # the coarser scales' (token, position) pairs
    ph, pw = oracle.cfg.shape
    for s, (h, w) in enumerate(ladder, start=1):
        if h < 1 or w < 1:
            raise ValueError("invalid scale shape")
        positions = s * SCALE_STRIDE + np.arange(h * w)
        # sample the profile at the matching relative location
        i, j = np.divmod(np.arange(h * w), w)
        kappas = oracle.cfg.profile[i * ph // h, j * pw // w]
        # every position of a scale conditions on the same coarser scales,
        # so the query takes their one digest
        probs, eps, t = score(
            oracle, positions, running.digest(), tp, top_k, top_p,
            cfg_scale, kappas, partial(scale_temperature, s=s, sp=sp))
        # one uniform per position in row-major order
        tokens = dist._sample_rows(probs, rng.uniforms(h * w))
        temps.extend(t)
        running.append(tokens, positions)
        grids.append(tokens.reshape(h, w))
        entropy_maps.append(eps.reshape(h, w))
        mean_entropy.append(float(entropy_maps[-1].mean()))
    return grids, entropy_maps, mean_entropy, temps
