"""Exactness of the sequential samplers at length: a randomized PIT.

A sequence drawn exactly from conditionals p_t(. | x_<t) has randomized
probability integral transform values u_t = F_t(x_t-) + v_t * p_t(x_t),
v_t ~ U(0, 1), that are i.i.d. U(0, 1) at any length (Rosenblatt 1952;
Czado, Gneiting & Held 2009 for discrete laws). F_t ranks tokens by
descending probability, ties by ascending id, an order fixed before
looking at any draw. Each decode's exact laws come from one batched
``decode.score`` of all its positions, on the digests of its own prefixes.

Three statistics over the pooled decodes:
- the KS p-value of the u_t against U(0, 1);
- the surprise z, sum(-log p_t(x_t) - H_t) / sqrt(sum Var_t(log p)), a
  martingale sum that is N(0, 1) under an exact sampler;
- the lag-1 correlation of the u_t within each decode, times sqrt(n),
  also N(0, 1): KS sees only the marginal.
"""

from dataclasses import replace

import numpy as np
from scipy import stats as sstats

from entropix import speculative
from entropix.cli import run
from entropix.config import RunConfig, build_run
from entropix.decode import score
from entropix.oracle import RunningDigest

# perfbench's spec-context setting under the baseline rule
SPEC_CONTEXT = RunConfig(
    mode="spec-baseline", vocab=64, height=16, width=16, kappa_bg=0.95,
    kappa_fg=0.05, rect=(4, 4, 8, 9), context_sensitivity=1.0, t0=0.5,
    alpha=3.0, theta=0.2, window=16, length=4096)
# the same under guidance 1.5 and top-p 0.8: filtered rows give the
# residual resample supports that differ between windows
SPEC_CONTEXT_TOP_P = replace(SPEC_CONTEXT, cfg_scale=1.5, top_p=0.8)
# perfbench's seq-context setting: guidance 1.5 and top-k 16
SEQ_CONTEXT = RunConfig(
    mode="next-token", vocab=64, height=64, width=64, preset="llamagen",
    kappa_bg=0.9, kappa_fg=0.1, rect=(16, 16, 32, 32),
    context_sensitivity=0.5, cfg_scale=1.5, top_k=16, length=4096)
# the fewest seeds at which the redraw-from-new mutant fails both the KS
# and the surprise bound by a wide margin
JACOBI_SEEDS = range(12)
NEXT_TOKEN_SEEDS = range(8)
# at 8 seeds the mutant reads KS p 4.8e-6 and z -18.3 under top-p, against
# bounds of 1e-4 and -6; the exact sampler reads 0.33, -1.2 and lag -1.9
JACOBI_TOP_P_SEEDS = range(8)


def pit_statistics(cfg: RunConfig, seeds):
    """(KS p-value, surprise z, lag-1 correlation * sqrt(n)) of the decodes
    of cfg at each seed."""
    v_rng = np.random.default_rng(0)
    us, surprise, variance, lag, pairs = [], 0.0, 0.0, 0.0, 0
    for seed in seeds:
        c = replace(cfg, seed=seed)
        x = run(c).tokens.reshape(-1)
        parts = build_run(c)
        n = len(x)
        digests = RunningDigest().continuation_digests(x[:-1], range(n - 1))
        p, _, _ = score(parts.oracle, range(n), digests, parts.tp, c.top_k,
                        c.top_p, c.cfg_scale)
        px = p[np.arange(n), x]
        ids = np.arange(p.shape[1])
        before = (p > px[:, None]) | ((p == px[:, None]) & (ids < x[:, None]))
        u = np.where(before, p, 0.0).sum(axis=1) + v_rng.random(n) * px
        logp = np.log(p, out=np.zeros_like(p), where=p > 0)
        h = -(p * logp).sum(axis=1)
        surprise += (-np.log(px) - h).sum()
        variance += ((p * logp ** 2).sum(axis=1) - h ** 2).sum()
        d = u - 0.5
        lag += (d[:-1] * d[1:]).sum()  # each term has variance 1/144
        pairs += n - 1
        us.append(u)
    ks_p = sstats.kstest(np.concatenate(us), "uniform").pvalue
    return ks_p, surprise / np.sqrt(variance), lag * 12 / np.sqrt(pairs)


def assert_exact(ks_p, z, lag):
    assert ks_p > 1e-3
    assert abs(z) < 4
    assert abs(lag) < 4


def test_jacobi_baseline_is_exact():
    assert_exact(*pit_statistics(SPEC_CONTEXT, JACOBI_SEEDS))


def test_jacobi_baseline_is_exact_under_top_p():
    assert_exact(*pit_statistics(SPEC_CONTEXT_TOP_P, JACOBI_TOP_P_SEEDS))


def test_next_token_is_exact():
    assert_exact(*pit_statistics(SEQ_CONTEXT, NEXT_TOKEN_SEEDS))


def test_redraw_from_new_mutant_fails(monkeypatch):
    # a rejected draft redrawn from the new distribution instead of the
    # residual: the emitted tokens are likelier than the exact law's
    monkeypatch.setattr(speculative, "_residual", lambda p_new, p_old: p_new)
    ks_p, z, _ = pit_statistics(SPEC_CONTEXT, JACOBI_SEEDS)
    assert ks_p < 1e-4
    assert z < -6


def test_redraw_from_new_mutant_fails_under_top_p(monkeypatch):
    monkeypatch.setattr(speculative, "_residual", lambda p_new, p_old: p_new)
    ks_p, z, _ = pit_statistics(SPEC_CONTEXT_TOP_P, JACOBI_TOP_P_SEEDS)
    assert ks_p < 1e-4
    assert z < -6
