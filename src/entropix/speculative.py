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

Draw order. A window of w_eff slots, the first m of them verifiable,
takes its random draws in one fixed order: one uniform per accept test,
up to and including the first rejection; one uniform for the tail draw
(the residual resample on a rejection, else the fresh draw at slot m,
unless all w_eff slots were verifiable and accepted); one uniform per
surviving draft, in slot order; then one integer per fresh draft. That is
exactly w_eff uniforms, or w_eff + 1 on a rejection. So a window draws
``uniforms(w_eff)`` at once, and one ``uniform()`` more on a rejection
before the resample reads it; its fresh drafts are one ``integers`` call.
The batched calls give the scalar draws' values (pinned in
tests/test_rng.py), so the stream, and every golden, is that of a loop
that draws one value at a time. The accept tests run in array form
(``accept_drafts``) over all m slots; only those up to the first
rejection count.
"""

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from entropix import dist
from entropix._kernels_py import _BLOCK_ELEMS, _mix64_vec
from entropix.decode import query_kinds, score
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


def entropy_thresholds(eps, r, sp: SpecAcceptParams) -> np.ndarray:
    """Entropy-aware acceptance thresholds, elementwise, each clamped to
    [0, 1]; exactly 0 at zero entropy."""
    eps = np.asarray(eps, dtype=np.float64)
    r = np.asarray(r, dtype=np.float64)
    # negated comparisons, so that NaN fails them
    if not np.minimum.reduce(eps, initial=np.inf) >= 0:
        raise ValueError("negative entropy")
    decay = (1.0 - sp.lam * eps) if sp.literal_noise_decay \
        else (1.0 - eps / sp.lam)
    t = (eps / sp.e) * (0.5 + (r - 0.5) * decay)
    return np.minimum(np.maximum(t, 0.0), 1.0)


def accept_drafts(p_new, p_old, r, eps=None,
                  sp: Optional[SpecAcceptParams] = None) -> np.ndarray:
    """The accept test of each draft, elementwise, in float64: the
    baseline test r < min(1, p_new/p_old) where ``eps`` is None, else the
    entropy-aware test min(1, p_new/p_old) > entropy_threshold(eps, r). A
    degenerate draft (p_old <= 0) is always rejected, to be resampled."""
    p_new = np.asarray(p_new, dtype=np.float64)
    p_old = np.asarray(p_old, dtype=np.float64)
    r = np.asarray(r, dtype=np.float64)
    if not (np.minimum.reduce(p_new, initial=np.inf) >= 0
            and np.minimum.reduce(r, initial=np.inf) >= 0
            and np.maximum.reduce(r, initial=-np.inf) < 1):
        raise ValueError("invalid acceptance inputs")
    live = p_old > 0
    ratio = np.minimum(1.0, p_new / np.where(live, p_old, 1.0))
    ok = r < ratio if eps is None else ratio > entropy_thresholds(eps, r, sp)
    return ok & live


def baseline_accept(p_new: float, p_old: float, r: float) -> bool:
    """One draft's baseline test: the one-element ``accept_drafts``."""
    return bool(accept_drafts((p_new,), (p_old,), (r,))[0])


def entropy_threshold(eps: float, r: float, sp: SpecAcceptParams) -> float:
    """Acceptance threshold in [0, 1]; exactly 0 at zero entropy."""
    return float(entropy_thresholds((eps,), (r,), sp)[0])


def entropy_accept(p_new: float, p_old: float, eps: float, r: float,
                   sp: SpecAcceptParams) -> bool:
    """One draft's entropy-aware test: the one-element ``accept_drafts``."""
    return bool(accept_drafts((p_new,), (p_old,), (r,), (eps,), sp)[0])


def _residual(p_new: np.ndarray, p_old: np.ndarray) -> np.ndarray:
    """max(0, new - old) normalized; new itself where the two are equal."""
    residual = np.maximum(p_new - p_old, 0.0)
    total = residual.sum()
    if total <= 1e-15:
        return p_new
    return residual / total


def residual_resample(new_dist, old_dist, rng: RngStream) -> int:
    """Draw from max(0, new - old) normalized; falls back to new when equal."""
    p_new = dist.validate_probs(new_dist)
    p_old = dist.validate_probs(old_dist)
    if p_new.shape != p_old.shape:
        raise ValueError("distribution length mismatch")
    return dist.inverse_cdf(_residual(p_new, p_old), rng.uniform())


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

    Slot i conditions on the emitted prefix plus drafts[:i]. Its digest is
    an entry of the running digest's ``continuation`` over the window's
    drafts, so no prefix is copied or refolded and each draft pair is
    hashed once; the window commits its accepted drafts and its tail token
    by ``RunningDigest.advance``. The rows' prefix-free inputs come from an
    ``Oracle.position_inputs`` span derived about ``_BLOCK_ELEMS`` noise
    values per query kind, plus one window, ahead, so a window hashes only
    its context terms. Between iterations the loop keeps the drafts, the
    digest and ``prev``: the rows of the last window's distributions that
    the surviving drafts were sampled from, so slot i is unverified exactly
    when i == len(prev). Each iteration emits its accepted drafts plus one
    more token (the resample or the fresh draw), unless every slot was
    accepted, with the entropies of those slots.

    A window of w_eff slots draws ``rng.uniforms(w_eff)`` up front and one
    ``uniform()`` more on a rejection, then ``rng.integers`` for its fresh
    drafts; see the module docstring for the order. Its draws run
    ``dist``'s draw cores without revalidating: the window's rows come
    from ``pipeline_probs``, and the residual of two of them is
    nonnegative and normalized, or the new row itself.

    Returns (token list, SpecStats, entropy list, applied-temperature list).
    """
    if length < 1 or window < 1:
        raise ValueError("length and window must be positive")
    emitted: List[int] = []
    eps_out: List[float] = []
    temps: List[float] = []
    stats = SpecStats()
    vocab = oracle.cfg.vocab
    kinds = query_kinds(cfg_scale)
    ahead = max(1, _BLOCK_ELEMS // vocab) + window
    span = oracle.position_inputs(range(min(ahead, length)), kinds)
    drafts = rng.integers(vocab, window)
    prev = np.empty((0, vocab))
    running = RunningDigest()
    eps_rule = sp.mode == ENTROPY_AWARE

    while len(emitted) < length:
        base = len(emitted)
        w_eff = min(window, length - base)
        positions = np.arange(base, base + w_eff)
        if base + w_eff > span.stop:
            span = oracle.position_inputs(
                range(base, min(base + ahead, length)), kinds)
        folds = running.continuation(drafts[:w_eff], positions)
        q, eps_rows, t_rows = score(oracle, positions,
                                    _mix64_vec(folds[:w_eff]), tp, top_k,
                                    top_p, cfg_scale, inputs=span)
        temps.extend(t_rows)

        # the accept tests of the m verifiable slots read u[:m]; the tests
        # up to the first rejection are the ones made
        u = rng.uniforms(w_eff)
        m = prev.shape[0]
        accepted = 0
        if m:
            slots, d = np.arange(m), drafts[:m]
            ok = accept_drafts(q[slots, d], prev[slots, d], u[:m],
                               eps_rows[:m] if eps_rule else None, sp)
            accepted = int(ok.argmin())  # the first rejection, if any
            if ok[accepted]:
                accepted = m
        rejected = accepted < m
        tests = accepted + rejected
        stats.accept_tests += tests
        stats.per_iteration_accepted.append(accepted)
        if rejected:
            # the resample takes one uniform more than the window holds
            u = np.append(u, rng.uniform())
            row = _residual(q[accepted], prev[accepted])
        else:
            # an unverified slot whose conditioning prefix is fully
            # accepted: a draw from its fresh distribution is already exact
            row = q[m] if m < w_eff else None
        emitted += drafts[:accepted].tolist()
        if row is None:
            running.advance(folds[accepted])
        else:
            tail = dist.inverse_cdf(row, u[tests])
            emitted.append(tail)
            running.advance(folds[accepted], tail, base + accepted)
        advance = len(emitted) - base
        eps_out += eps_rows[:advance].tolist()

        # slide the window: survivors resample from this iteration's
        # distributions (one uniform each, in slot order), fresh tail slots
        # start from uniform drafts
        prev = q[advance:w_eff]
        drafts = np.concatenate((
            dist._sample_rows(prev, u[advance + rejected:]),
            rng.integers(vocab, window - prev.shape[0])))

    stats.tokens_emitted = len(emitted)
    return emitted, stats, eps_out, temps
