"""Self-speculative (Jacobi) decoding with two acceptance rules.

Baseline: accept a draft token when r < min(1, p_new/p_old), otherwise
resample from the normalized positive part of (new - old). This preserves
the target distribution exactly.

Entropy-aware: accept when min(1, p_new/p_old) exceeds a threshold
(eps/e) * [0.5 + (r - 0.5) * decay]. Low-entropy tokens get a near-zero
threshold (permissive), high-entropy tokens an almost deterministic one.
The decay factor defaults to the bounded divisor form (1 - eps/lambda);
the literal product form (1 - lambda*eps) stays selectable. The literal
decay turns negative for eps > 1/lambda, so there a draw r below 0.5
raises the threshold and the rule can reject drafts the baseline would
accept: at lambda = 16 it made more invocations than the baseline rule
at e = 4 on the tiny sequence spaces of BENCH_13's frontier, and 1.15 to
1.24 times the baseline's at every e in {4, 8, 16} at lengths 256 to
4,096 in BENCH_14's ``saving``, where the bounded form made 0.75 to 0.77
times them at e = 16, 0.82 to 0.83 at e = 8 and 1.02 to 1.03 at e = 4.
"""

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from entropix import dist
from entropix.decode import score
from entropix.oracle import Oracle, RunningDigest
from entropix.rng import RngStream
from entropix.temperature import TempParams

BASELINE = "baseline"
ENTROPY_AWARE = "entropy-aware"


@dataclass(frozen=True)
class SpecAcceptParams:
    e: float = 8.0
    lam: float = 16.0
    mode: str = BASELINE
    literal_noise_decay: bool = False

    def __post_init__(self):
        if self.e <= 0 or self.lam <= 0:
            raise ValueError("e and lambda must be positive")
        if self.mode not in (BASELINE, ENTROPY_AWARE):
            raise ValueError(f"unknown acceptance mode {self.mode!r}")


def baseline_accept(p_new: float, p_old: float, r: float) -> bool:
    if p_new < 0 or not 0 <= r < 1:
        raise ValueError("invalid acceptance inputs")
    if p_old <= 0:
        return False  # degenerate draft: always resample
    return r < min(1.0, p_new / p_old)


def entropy_threshold(eps: float, r: float, sp: SpecAcceptParams) -> float:
    """Acceptance threshold in [0, 1]; exactly 0 at zero entropy."""
    if eps < 0:
        raise ValueError("negative entropy")
    decay = (1.0 - sp.lam * eps) if sp.literal_noise_decay else (1.0 - eps / sp.lam)
    t = (eps / sp.e) * (0.5 + (r - 0.5) * decay)
    return min(max(t, 0.0), 1.0)


def entropy_accept(p_new: float, p_old: float, eps: float, r: float,
                   sp: SpecAcceptParams) -> bool:
    if p_new < 0 or not 0 <= r < 1:
        raise ValueError("invalid acceptance inputs")
    if p_old <= 0:
        return False
    return min(1.0, p_new / p_old) > entropy_threshold(eps, r, sp)


def residual_resample(new_dist, old_dist, rng: RngStream) -> int:
    """Draw from max(0, new - old) normalized; falls back to new when equal."""
    p_new = dist.validate_probs(new_dist)
    p_old = dist.validate_probs(old_dist)
    if p_new.shape != p_old.shape:
        raise ValueError("distribution length mismatch")
    residual = np.clip(p_new - p_old, 0.0, None)
    total = residual.sum()
    if total <= 1e-15:
        return dist.sample_categorical(p_new, rng)
    return dist.sample_categorical(residual / total, rng)


@dataclass
class SpecStats:
    tokens_emitted: int = 0
    accept_tests: int = 0
    per_iteration_accepted: List[int] = field(default_factory=list)

    @property
    def model_invocations(self) -> int:
        """One batched query per iteration."""
        return len(self.per_iteration_accepted)

    @property
    def accepted(self) -> int:
        return sum(self.per_iteration_accepted)

    @property
    def mean_acceptance_rate(self) -> float:
        return self.accepted / self.accept_tests if self.accept_tests else 0.0


def jacobi_decode(oracle: Oracle, length: int, window: int, tp: TempParams,
                  sp: SpecAcceptParams, rng: RngStream,
                  top_k: Optional[int] = None, top_p: Optional[float] = None,
                  cfg_scale: float = 1.0):
    """Sliding-window Jacobi decode.

    Each iteration scores the window in one batch (``decode.score``, one
    row per slot), verifies drafts left to right against the distributions
    they were sampled from, stops at the first rejection (residual resample)
    or at the first unverified slot (emitted as a fresh exact sample), then
    refreshes the surviving drafts from this iteration's distributions.

    Slot i conditions on the emitted prefix plus drafts[:i]. Its digest comes
    from a running digest of the emitted prefix (``RunningDigest``), so no
    prefix is copied or refolded. Between iterations the loop keeps the
    drafts, that digest and ``prev``: the rows of the last window's
    distributions that the surviving drafts were sampled from, so slot i is
    unverified exactly when i == len(prev). Each iteration emits its
    accepted drafts plus one more token (the resample or the fresh draw),
    unless every slot was accepted, with the entropies of those slots.

    Returns (token list, SpecStats, entropy list, applied-temperature list).
    """
    if length < 1 or window < 1:
        raise ValueError("length and window must be positive")
    emitted: List[int] = []
    eps_out: List[float] = []
    temps: List[float] = []
    stats = SpecStats()
    vocab = oracle.cfg.vocab
    drafts = [rng.integer(vocab) for _ in range(window)]
    prev: List[np.ndarray] = []
    running = RunningDigest()

    while len(emitted) < length:
        base = len(emitted)
        w_eff = min(window, length - base)
        positions = range(base, base + w_eff)
        digests = running.continuation_digests(drafts[:w_eff - 1],
                                               positions[:w_eff - 1])
        q, eps_rows, t_rows = score(oracle, positions, digests, tp, top_k,
                                    top_p, cfg_scale)
        eps_list = eps_rows.tolist()
        temps.extend(t_rows)

        accepted, tail = 0, []
        for i in range(w_eff):
            if i == len(prev):
                # unverified slot whose conditioning prefix is fully accepted:
                # a draw from its fresh distribution is already exact
                tail = [dist.sample_categorical(q[i], rng)]
                break
            r = rng.uniform()
            p_old = float(prev[i][drafts[i]])
            p_new = float(q[i][drafts[i]])
            stats.accept_tests += 1
            if sp.mode == ENTROPY_AWARE:
                ok = entropy_accept(p_new, p_old, eps_list[i], r, sp)
            else:
                ok = baseline_accept(p_new, p_old, r)
            if not ok:
                tail = [residual_resample(q[i], prev[i], rng)]
                break
            accepted += 1
        advance = accepted + len(tail)
        emitted += drafts[:accepted] + tail
        eps_out += eps_list[:advance]
        stats.per_iteration_accepted.append(accepted)
        running.append(emitted[base:], range(base, len(emitted)))

        # slide the window: survivors resample from this iteration's
        # distributions (one uniform each, in slot order), fresh tail slots
        # start from uniform drafts
        survivors = q[advance:w_eff]
        drafts = dist.sample_rows(
            survivors, rng.uniforms(survivors.shape[0])).tolist()
        prev = list(survivors)
        drafts += [rng.integer(vocab) for _ in range(window - len(drafts))]

    stats.tokens_emitted = len(emitted)
    return emitted, stats, eps_out, temps
