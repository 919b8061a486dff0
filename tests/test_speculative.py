import hashlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entropix import dist, speculative
from entropix.oracle import Oracle, OracleConfig
from entropix.rng import RngStream
from entropix.speculative import (BASELINE, ENTROPY_AWARE, SpecAcceptParams,
                                  baseline_accept, entropy_accept,
                                  entropy_threshold, jacobi_decode,
                                  residual_resample)
from entropix.temperature import preset


class TestBaselineAccept:
    def test_identical_distributions(self):
        for r in (0.0, 0.5, 0.999):
            assert baseline_accept(0.3, 0.3, r)

    def test_ratio_half(self):
        assert baseline_accept(0.2, 0.4, 0.49)
        assert not baseline_accept(0.2, 0.4, 0.51)

    def test_ratio_above_one(self):
        for r in (0.0, 0.5, 0.999):
            assert baseline_accept(0.5, 0.1, r)

    def test_degenerate_draft(self):
        assert not baseline_accept(0.5, 0.0, 0.0)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            baseline_accept(-0.1, 0.5, 0.5)
        with pytest.raises(ValueError):
            baseline_accept(0.5, 0.5, 1.0)


class TestEntropyAccept:
    def test_zero_entropy_always_accepts(self):
        sp = SpecAcceptParams()
        assert entropy_threshold(0.0, 0.5, sp) == 0.0
        for r in (0.0, 0.3, 0.99):
            assert entropy_accept(0.01, 0.9, 0.0, r, sp)

    def test_reference_thresholds(self):
        sp = SpecAcceptParams(e=8.0, lam=16.0)
        assert entropy_threshold(8.0, 0.5, sp) == pytest.approx(0.5)
        assert entropy_threshold(4.0, 0.5, sp) == pytest.approx(0.25)
        # permissive below baseline's expected threshold of 0.5
        assert entropy_threshold(4.0, 0.5, sp) < 0.5
        assert entropy_accept(0.26, 0.5, 8.0, 0.5, sp)
        assert not entropy_accept(0.24, 0.5, 8.0, 0.5, sp)

    def test_clamped_to_unit_interval(self):
        sp = SpecAcceptParams(e=8.0, lam=16.0)
        for eps in np.linspace(0, 40, 50):
            for r in (0.0, 0.25, 0.75, 0.999):
                assert 0.0 <= entropy_threshold(float(eps), r, sp) <= 1.0

    def test_monotone_in_entropy_at_half(self):
        sp = SpecAcceptParams(e=8.0, lam=16.0)
        grid = np.linspace(0.0, 16.0, 100)
        thresholds = [entropy_threshold(float(e), 0.5, sp) for e in grid]
        assert all(a <= b for a, b in zip(thresholds, thresholds[1:]))

    def test_literal_product_form_selectable(self):
        sp = SpecAcceptParams(e=8.0, lam=16.0, literal_noise_decay=True)
        # (1 - lam*eps) at eps=0.5, r=1.0-: (0.5/8)*(0.5 + 0.5*(-7)) = -0.1875
        assert entropy_threshold(0.5, 0.999, sp) == pytest.approx(0.0, abs=0.01)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            SpecAcceptParams(e=0.0)
        with pytest.raises(ValueError):
            SpecAcceptParams(mode="other")
        with pytest.raises(ValueError):
            entropy_threshold(-1.0, 0.5, SpecAcceptParams())


class TestResidualResample:
    def test_positive_part(self):
        # residual of ([0.8, 0.2] - [0.2, 0.8]) is concentrated on index 0
        for seed in range(10):
            tok = residual_resample([0.8, 0.2], [0.2, 0.8], RngStream(seed))
            assert tok == 0

    def test_equal_distributions_fallback(self):
        p = np.array([0.25, 0.75])
        rng = RngStream(0)
        draws = [residual_resample(p, p, rng) for _ in range(2000)]
        assert abs(np.mean(draws) - 0.75) < 0.05

    def test_one_hot_new(self):
        new = np.array([0.0, 1.0, 0.0])
        old = np.array([0.3, 0.4, 0.3])
        assert residual_resample(new, old, RngStream(1)) == 1

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            residual_resample([1.0], [0.5, 0.5], RngStream(0))

    def test_accept_or_residual_preserves_target(self):
        # classical speculative-sampling correctness on a fixed pair
        rng = RngStream(13)
        old = np.array([0.5, 0.2, 0.1, 0.1, 0.05, 0.02, 0.02, 0.01])
        new = np.array([0.1, 0.1, 0.3, 0.2, 0.1, 0.1, 0.05, 0.05])
        n = 100000
        counts = np.zeros(8)
        for _ in range(n):
            draft = dist.sample_categorical(old, rng)
            r = rng.uniform()
            if baseline_accept(float(new[draft]), float(old[draft]), r):
                counts[draft] += 1
            else:
                counts[residual_resample(new, old, rng)] += 1
        tv = 0.5 * np.abs(counts / n - new).sum()
        assert tv < 0.01


def make_oracle(vocab=16, c=0.0, kappa=0.3, seed=1):
    prof = np.full((8, 8), kappa)
    return Oracle(OracleConfig(vocab=vocab, shape=(8, 8), profile=prof,
                               seed=seed, context_sensitivity=c))


class TestJacobiDecode:
    def test_window_one_is_sequential(self):
        o = make_oracle(c=0.6)
        sp = SpecAcceptParams(mode=BASELINE)
        toks, stats, eps, temps = jacobi_decode(o, 20, 1, preset("llamagen"),
                                                sp, RngStream(3))
        assert stats.tokens_emitted == 20
        assert stats.model_invocations == 20
        assert stats.accept_tests == 0  # every slot is a fresh exact sample
        assert len(eps) == 20 and len(toks) == 20

    def test_stationary_full_acceptance(self):
        # prefix-independent oracle: prev and new distributions coincide, so
        # every tested draft is accepted under both rules
        for mode in (BASELINE, ENTROPY_AWARE):
            o = make_oracle(c=0.0)
            sp = SpecAcceptParams(mode=mode)
            toks, stats, _, _ = jacobi_decode(o, 128, 16, preset("llamagen"),
                                              sp, RngStream(5))
            assert stats.accepted == stats.accept_tests > 0
            assert stats.model_invocations >= math.ceil(128 / 16)

    def test_invocation_floor(self):
        o = make_oracle(c=0.9)
        sp = SpecAcceptParams(mode=BASELINE)
        for window in (2, 5, 16):
            _, stats, _, _ = jacobi_decode(o, 64, window, preset("llamagen"),
                                           sp, RngStream(7))
            assert stats.model_invocations >= math.ceil(64 / window)
            assert stats.tokens_emitted == 64

    def test_accounting(self):
        o = make_oracle(c=0.7)
        sp = SpecAcceptParams(mode=ENTROPY_AWARE)
        toks, stats, eps, temps = jacobi_decode(o, 100, 8, preset("llamagen"),
                                                sp, RngStream(11))
        assert stats.tokens_emitted == len(toks) == len(eps) == 100
        assert stats.accepted <= stats.accept_tests
        assert sum(stats.per_iteration_accepted) == stats.accepted
        assert len(stats.per_iteration_accepted) == stats.model_invocations
        assert 0.0 <= stats.mean_acceptance_rate <= 1.0

    def test_reproducible(self):
        o = make_oracle(c=0.5)
        sp = SpecAcceptParams(mode=ENTROPY_AWARE)
        a = jacobi_decode(o, 60, 8, preset("star"), sp, RngStream(2))
        b = jacobi_decode(o, 60, 8, preset("star"), sp, RngStream(2))
        assert a[0] == b[0]
        assert a[1] == b[1]

    def test_invalid_args(self):
        o = make_oracle()
        sp = SpecAcceptParams()
        with pytest.raises(ValueError):
            jacobi_decode(o, 0, 4, preset("star"), sp, RngStream(0))
        with pytest.raises(ValueError):
            jacobi_decode(o, 4, 0, preset("star"), sp, RngStream(0))

    def test_emitted_distribution_stationary(self):
        # with a stationary oracle every emitted token is an exact draw from
        # its position's pipeline distribution; check one position's marginal
        o = make_oracle(vocab=8, c=0.0, kappa=0.2)
        sp = SpecAcceptParams(mode=BASELINE)
        from entropix.temperature import pipeline_probs
        target = pipeline_probs(o.logits_at(0, []), tp=preset("llamagen"))[0]
        counts = np.zeros(8)
        n = 3000
        for seed in range(n):
            toks, _, _, _ = jacobi_decode(o, 4, 4, preset("llamagen"), sp,
                                          RngStream(seed))
            counts[toks[0]] += 1
        tv = 0.5 * np.abs(counts / n - target).sum()
        assert tv < 0.05


class TestJacobiEmission:
    @settings(max_examples=150, deadline=None)
    @given(window=st.integers(1, 8), length=st.integers(1, 40),
           c=st.sampled_from([0.0, 0.5, 1.0]),
           mode=st.sampled_from([BASELINE, ENTROPY_AWARE]),
           cfg_scale=st.sampled_from([1.0, 1.5]), seed=st.integers(0, 999))
    def test_windows_emit_accepted_slots_plus_one(self, window, length, c,
                                                  mode, cfg_scale, seed):
        # each window emits its accepted drafts and the slot after them
        # (a resample or a fresh draw) unless every slot was accepted, with
        # those slots' entropies; perfbench's checks.emitted_slots reads
        # the temperature list through this mapping
        windows = []

        def recording(oracle, positions, digests, *args, **kwargs):
            out = score(oracle, positions, digests, *args, **kwargs)
            windows.append((list(positions), out[1].tolist()))
            return out

        score = speculative.score
        with mock.patch.object(speculative, "score", recording):
            toks, stats, eps, temps = jacobi_decode(
                make_oracle(vocab=8, c=c, kappa=0.2, seed=seed % 7), length,
                window, preset("llamagen"), SpecAcceptParams(mode=mode),
                RngStream(seed), cfg_scale=cfg_scale)
        assert len(toks) == len(eps) == length
        assert len(windows) == len(stats.per_iteration_accepted)
        base = 0
        for (positions, slot_eps), accepted in zip(
                windows, stats.per_iteration_accepted):
            w_eff = min(window, length - base)
            assert positions == list(range(base, base + w_eff))
            assert accepted <= w_eff
            advance = accepted if accepted == w_eff else accepted + 1
            assert eps[base:base + advance] == slot_eps[:advance]
            base += advance
        assert base == length
        assert len(temps) == sum(len(p) for p, _ in windows)


def float_digest(values):
    """Short SHA-256 of the exact float64 bytes, for bit-level goldens."""
    raw = np.asarray(values, dtype=np.float64).tobytes()
    return hashlib.sha256(raw).hexdigest()[:16]


# Frozen regression values: (rule, sampling options, tokens, SpecStats as
# (model_invocations, tokens_emitted, accept_tests, accepted,
# per_iteration_accepted), entropy digest, temperature digest). The oracle
# is context-sensitive, so both the accept and the residual-resample paths
# run. Recorded from the per-slot reference loop that predates the batched
# window query; any change of draw order or arithmetic shows up here.
JACOBI_GOLDEN = [
    (BASELINE, {},
     [6, 6, 0, 5, 6, 5, 7, 3, 3, 5, 0, 7, 4, 4, 0, 7, 3, 6, 1, 3, 6, 0, 4, 2, 1, 3, 5, 5, 0, 7, 3, 1, 2, 0, 4, 0, 2, 6, 0, 4],
     (12, 40, 30, 28,
      [0, 3, 2, 3, 2, 3, 0, 5, 0, 5, 0, 5]),
     'c13078e19cebcfcf', '42540040d2352d52'),
    (ENTROPY_AWARE, {},
     [6, 6, 0, 5, 2, 4, 4, 3, 0, 3, 2, 5, 0, 4, 7, 2, 0, 7, 2, 6, 4, 7, 4, 6, 0, 4, 2, 2, 5, 5, 5, 0, 7, 4, 1, 2, 1, 3, 0, 2],
     (12, 40, 29, 29,
      [0, 5, 0, 5, 0, 5, 0, 5, 0, 5, 0, 4]),
     '39c0780638222779', 'cee5bcb057649e6e'),
    (BASELINE, {'cfg_scale': 1.5, 'top_k': 5},
     [5, 6, 3, 4, 1, 4, 2, 1, 1, 0, 7, 1, 7, 7, 0, 4, 2, 1, 7, 6, 1, 0, 5, 1, 3, 3, 0, 5, 7, 5, 6, 6, 5, 3, 6, 0, 3, 0, 7, 4],
     (17, 40, 35, 24,
      [0, 1, 0, 3, 0, 2, 0, 5, 0, 0, 3, 0, 1, 4, 1, 2, 2]),
     'c70dc3dce6d05c95', 'd27fd983de4d883f'),
    (ENTROPY_AWARE, {'cfg_scale': 1.5, 'top_k': 5},
     [5, 6, 3, 4, 1, 4, 2, 1, 4, 5, 0, 6, 2, 7, 0, 5, 3, 7, 0, 1, 5, 0, 1, 4, 0, 3, 6, 0, 0, 2, 4, 5, 0, 7, 1, 3, 1, 6, 4, 7],
     (19, 40, 36, 22,
      [0, 1, 0, 3, 2, 3, 2, 1, 0, 0, 3, 0, 3, 1, 0, 0, 1, 0, 2]),
     '0bda6aa039debdf4', 'd848e605bb28db91'),
    (BASELINE, {'top_p': 0.9},
     [6, 6, 0, 4, 3, 4, 4, 2, 0, 3, 3, 5, 0, 4, 7, 1, 0, 7, 3, 6, 4, 7, 4, 6, 0, 4, 3, 3, 5, 0, 7, 3, 1, 1, 2, 1, 3, 0, 2, 5],
     (12, 40, 30, 29,
      [0, 5, 0, 5, 0, 5, 0, 4, 1, 4, 1, 4]),
     '27a9eeefcf0328d1', 'ace3ed7a65799c0f'),
    (ENTROPY_AWARE, {'top_p': 0.9},
     [6, 6, 0, 4, 3, 4, 4, 2, 0, 3, 3, 5, 0, 4, 7, 1, 0, 7, 3, 6, 4, 7, 4, 6, 0, 4, 2, 2, 5, 5, 5, 0, 7, 3, 1, 2, 0, 3, 0, 2],
     (12, 40, 29, 29,
      [0, 5, 0, 5, 0, 5, 0, 5, 0, 5, 0, 4]),
     'd178b308556b47a4', '43ba41ebe657d202'),
]


class TestJacobiGolden:
    @pytest.mark.parametrize("mode,options,tokens,stats,eps_digest,"
                             "temp_digest", JACOBI_GOLDEN)
    def test_golden(self, mode, options, tokens, stats, eps_digest,
                    temp_digest):
        o = make_oracle(vocab=8, c=0.5, kappa=0.0, seed=1)
        toks, st, eps, temps = jacobi_decode(
            o, 40, 6, preset("llamagen"), SpecAcceptParams(mode=mode),
            RngStream(4), **options)
        assert toks == tokens
        assert (st.model_invocations, st.tokens_emitted, st.accept_tests,
                st.accepted, st.per_iteration_accepted) == stats
        assert float_digest(eps) == eps_digest
        assert float_digest(temps) == temp_digest
