"""Mask-prediction decoding: sample every open position each step, keep the
k most confident under Gumbel-perturbed log-probability, repeat until the
grid is full.

Confidence is log(p_sampled) + T * g with g ~ Gumbel(0,1) and T the
per-position dynamic temperature, so low-entropy (high-T) positions compete
with noisier scores.

Each step is one batched pass: every open position shares the step's
conditioning digest, so one oracle query returns all their logits and the
pipeline, the token draws and the confidences run row-wise over them.
"""

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from entropix import dist
from entropix.decode import query_kinds, score
from entropix.oracle import Oracle, RunningDigest
from entropix.rng import RngStream
from entropix.temperature import TempParams


@dataclass(frozen=True)
class StepSchedule:
    total_tokens: int
    counts: Tuple[int, ...]

    def __post_init__(self):
        if sum(self.counts) != self.total_tokens or any(k < 1 for k in self.counts):
            raise ValueError("schedule must conserve tokens with every count >= 1")

    @property
    def total_steps(self) -> int:
        return len(self.counts)


def cosine_schedule(total_tokens: int, total_steps: int) -> StepSchedule:
    """Cosine acceptance schedule: few tokens early, most in the late steps.

    Integer counts come from largest-remainder apportionment of the cosine
    increments. Zeros are then bumped to 1, taking as many units off the
    largest counts: the top counts are leveled down as evenly as possible,
    which leaves the counts that taking one unit at a time from the current
    largest would. The counts are ordered ascending so k_t never decreases.
    """
    if total_steps < 1 or total_tokens < 1:
        raise ValueError("total_tokens and total_steps must be positive")
    if total_steps > total_tokens:
        raise ValueError("more steps than tokens")
    t = np.arange(total_steps + 1) / total_steps
    cum = 1.0 - np.cos(t * np.pi / 2.0)
    ideal = np.diff(cum) * total_tokens
    counts = np.floor(ideal).astype(int)
    rem = ideal - counts
    counts[np.argsort(-rem, kind="stable")[:total_tokens - counts.sum()]] += 1
    zeros = int(np.count_nonzero(counts == 0))
    counts = np.sort(np.maximum(counts, 1))[::-1]  # descending
    if zeros:
        # leveling the top j + 1 counts down to counts[j] frees cost[j]
        # units; level the largest prefix that frees at most the units owed
        cost = np.cumsum(counts) - np.arange(1, counts.size + 1) * counts
        top = int(np.searchsorted(cost, zeros, side="right"))
        level, extra = divmod(int(counts[:top].sum()) - zeros, top)
        counts[:top] = level
        counts[:extra] += 1
    return StepSchedule(total_tokens, tuple(np.sort(counts).tolist()))


@dataclass
class MaskState:
    accepted: np.ndarray  # bool grid
    tokens: np.ndarray  # int grid, valid where accepted

    @classmethod
    def initial(cls, shape: Tuple[int, int]) -> "MaskState":
        return cls(accepted=np.zeros(shape, dtype=bool),
                   tokens=np.zeros(shape, dtype=np.int64))

    def remaining(self) -> int:
        return int((~self.accepted).sum())


def confidence_rows(p_sampled: np.ndarray, temperature: np.ndarray,
                    u: np.ndarray) -> np.ndarray:
    """log(p_sampled) + T * g for arrays of positions, where g is the
    Gumbel(0, 1) draw for each position's supplied uniform."""
    if (p_sampled <= 0).any() or (p_sampled > 1).any():
        raise ValueError("sampled probability must be in (0, 1]")
    if (temperature <= 0).any():
        raise ValueError("nonpositive temperature")
    return np.log(p_sampled) + temperature * dist.gumbel_rows(u)


def update_mask(conf: np.ndarray, state: MaskState, k: int,
                sampled_tokens: Optional[np.ndarray] = None) -> MaskState:
    """Accept the k highest-confidence open positions (row-major tie-break).

    ``sampled_tokens`` supplies the token values written at newly accepted
    positions; already accepted positions are never touched.
    """
    if k < 1 or k > state.remaining():
        raise ValueError("k must be in [1, remaining positions]")
    scores = np.where(state.accepted, -np.inf, conf).reshape(-1)
    order = np.argsort(-scores, kind="stable")  # ties: lower flat index first
    chosen = order[:k]
    accepted = state.accepted.copy()
    tokens = state.tokens.copy()
    flat_acc = accepted.reshape(-1)
    flat_acc[chosen] = True
    if sampled_tokens is not None:
        tokens.reshape(-1)[chosen] = np.asarray(sampled_tokens).reshape(-1)[chosen]
    return MaskState(accepted=accepted, tokens=tokens)


def mask_generate(oracle: Oracle, shape: Tuple[int, int],
                  schedule: StepSchedule, tp: TempParams, rng: RngStream,
                  top_k: Optional[int] = None, top_p: Optional[float] = None,
                  cfg_scale: float = 1.0):
    """Full mask-prediction loop.

    Each step scores all open positions in one batch (``decode.score``);
    they share the digest of the frozen grid, which a ``RunningDigest``
    keeps by appending each step's newly accepted pairs, and the query
    takes that one digest for all of them. Only the context half of a
    logits row depends on it: the rest of every grid position's inputs,
    its position noise included, is derived once, before the first step
    (``Oracle.position_inputs``, conditional and, under guidance,
    unconditional), and each step's queries read the open rows of it. It
    then draws 2 uniforms per open
    position in row-major order: the token's inverse-CDF uniform, then its
    Gumbel uniform.

    The draft, confidence and entropy grids persist across steps, and each
    step writes its values at the open positions only. Accepted positions
    never reopen, so every cell of an accepted position holds the values of
    the step that accepted it.

    Returns (token grid, entropy map recorded at each position's acceptance
    step, list of MaskState snapshots, applied-temperature list).
    """
    h, w = shape
    if schedule.total_tokens != h * w:
        raise ValueError("schedule does not match the grid size")
    state = MaskState.initial(shape)
    # flat grids, read through their (h, w) views
    conf = np.full(h * w, -np.inf)
    drafts = np.zeros(h * w, dtype=np.int64)
    entropy = np.zeros(h * w)
    temps: List[float] = []
    history = [state]
    running = RunningDigest()  # the accepted (token, position) pairs
    inputs = oracle.position_inputs(range(h * w), query_kinds(cfg_scale))
    for k_t in schedule.counts:
        open_pos = np.flatnonzero(~state.accepted)
        n = open_pos.shape[0]
        probs, eps, t = score(oracle, open_pos, running.digest(), tp, top_k,
                              top_p, cfg_scale, inputs=inputs)
        u = rng.uniforms(2 * n).reshape(n, 2)  # (token, Gumbel) per position
        drafted = dist._sample_rows(probs, u[:, 0])
        conf[open_pos] = confidence_rows(probs[np.arange(n), drafted], t,
                                         u[:, 1])
        drafts[open_pos] = drafted
        entropy[open_pos] = eps
        temps.extend(t.tolist())
        before = state.accepted
        state = update_mask(conf.reshape(shape), state, k_t,
                            sampled_tokens=drafts.reshape(shape))
        newly = np.flatnonzero(state.accepted & ~before)
        running.append(state.tokens.reshape(-1)[newly], newly)
        history.append(state)
    assert state.accepted.all()
    return state.tokens.copy(), entropy.reshape(shape), history, temps
