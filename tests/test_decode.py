import itertools
from functools import partial

import numpy as np
import pytest
from scipy import stats as sstats

from entropix.decode import score
from entropix.oracle import Oracle, OracleConfig
from entropix.rng import RngStream
from entropix.scales import ScaleTempParams, scale_temperature
from entropix.speculative import BASELINE, SpecAcceptParams, jacobi_decode
from entropix.temperature import TempParams, pipeline_probs, preset


class CountingOracle:
    """Forwards queries to an oracle and counts the unconditional ones."""

    def __init__(self, oracle):
        self.oracle = oracle
        self.uncond = 0

    def _count(self, conditional):
        self.uncond += not conditional

    def logits_from_digest(self, pos, digest, conditional=True, kappa=None):
        self._count(conditional)
        return self.oracle.logits_from_digest(pos, digest, conditional, kappa)

    def logits_rows(self, positions, digests, conditional=True, kappas=None):
        self._count(conditional)
        return self.oracle.logits_rows(positions, digests, conditional, kappas)


class TestScore:
    @pytest.mark.parametrize("cfg_scale", [1.0, 1.5])
    @pytest.mark.parametrize("filters", [{}, {"top_k": 3}, {"top_p": 0.8}])
    @pytest.mark.parametrize("with_kappas", [False, True])
    @pytest.mark.parametrize("adjust", [None, partial(
        scale_temperature, s=3, sp=ScaleTempParams(0.3, 4, 0.5))],
        ids=["unadjusted", "scaled"])
    def test_one_row_equals_batched_row(self, cfg_scale, filters,
                                        with_kappas, adjust):
        prof = np.linspace(0.0, 1.0, 64).reshape(8, 8)
        oracle = CountingOracle(Oracle(OracleConfig(
            vocab=16, shape=(8, 8), profile=prof, seed=4,
            context_sensitivity=0.5)))
        tp = preset("star")
        positions = list(range(0, 64, 5))
        digests = [oracle.oracle.digest_of(list(range(p % 4)))
                   for p in positions]
        kappas = np.linspace(0.0, 1.0, len(positions)) if with_kappas \
            else None
        options = dict(filters, cfg_scale=cfg_scale,
                       adjust_temperature=adjust)
        probs, eps, t = score(oracle, positions, digests, tp, kappas=kappas,
                              **options)
        guided = cfg_scale != 1.0
        assert oracle.uncond == guided
        for n, pos in enumerate(positions):
            p1, e1, t1 = score(oracle, pos, digests[n], tp,
                               kappas=None if kappas is None else kappas[n],
                               **options)
            assert np.array_equal(p1, probs[n])
            assert e1 == eps[n] and t1 == t[n]
            assert np.ndim(e1) == 0 and np.ndim(t1) == 0
        assert oracle.uncond == guided * (1 + len(positions))

    def test_matches_pipeline(self):
        # score is the query plus pipeline_probs, nothing else
        oracle = Oracle(OracleConfig(vocab=16, shape=(4, 4), seed=2,
                                     context_sensitivity=0.7))
        tp = TempParams(1.5, 2.0, 0.4)
        got = score(oracle, 5, 99, tp, top_k=4, cfg_scale=1.5)
        want = pipeline_probs(oracle.logits_from_digest(5, 99),
                              oracle.logits_from_digest(5, 99, False),
                              1.5, tp, top_k=4)
        assert np.array_equal(got[0], want[0])
        assert got[1:] == want[1:]


def sequence_law(oracle, tp, vocab, length):
    """Exact probability of every token sequence under next-token sampling
    with the full pipeline, in ``itertools.product`` order."""
    seqs = list(itertools.product(range(vocab), repeat=length))
    law = np.array([np.prod([
        pipeline_probs(oracle.logits_at(i, seq[:i]), tp=tp)[0][seq[i]]
        for i in range(length)]) for seq in seqs])
    return seqs, law


class TestJacobiExactLaw:
    def test_baseline_rule_preserves_sequence_law_under_context(self):
        # With context every slot's distribution depends on the drafts
        # before it, so drafts are rejected and the residual resample is
        # what keeps the law. Redrawing a rejected slot from its new
        # distribution instead gives p ~ 1e-27 here.
        vocab, length, decodes = 3, 4, 5000
        oracle = Oracle(OracleConfig(vocab=vocab, shape=(2, 2),
                                     profile=np.full((2, 2), 0.05), seed=5,
                                     context_sensitivity=1.0))
        tp = TempParams(0.5, 3.0, 0.2)
        seqs, law = sequence_law(oracle, tp, vocab, length)
        index = {seq: n for n, seq in enumerate(seqs)}
        counts = np.zeros(len(seqs))
        rejections = 0
        sp = SpecAcceptParams(mode=BASELINE)
        for seed in range(decodes):
            tokens, stats, _, _ = jacobi_decode(oracle, length, 4, tp, sp,
                                                RngStream(seed))
            counts[index[tuple(tokens)]] += 1
            rejections += stats.accept_tests - stats.accepted
        assert rejections > decodes // 10
        # pool the sequences too rare for the chi-square approximation
        expected = law / law.sum() * decodes
        common = expected >= 5
        observed = np.append(counts[common], counts[~common].sum())
        expected = np.append(expected[common], expected[~common].sum())
        assert sstats.chisquare(observed, expected).pvalue > 1e-3
