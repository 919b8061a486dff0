import hashlib
import itertools
from functools import partial

import numpy as np
import pytest
from scipy import stats as sstats

from entropix import _kernels_py, decode, dist, speculative
from entropix.cli import run
from entropix.config import RunConfig
from entropix.decode import next_token_generate, score
from entropix.oracle import Oracle, OracleConfig, profile_rect
from entropix.rng import RngStream
from entropix.scales import ScaleTempParams, scale_temperature
from entropix.speculative import (BASELINE, ENTROPY_AWARE, SpecAcceptParams,
                                  jacobi_decode)
from entropix.temperature import TempParams, pipeline_probs, preset


def float_digest(values):
    """Short SHA-256 of the exact float64 bytes, for bit-level goldens."""
    raw = np.asarray(values, dtype=np.float64).tobytes()
    return hashlib.sha256(raw).hexdigest()[:16]


class CountingOracle:
    """Forwards queries to an oracle and counts the unconditional ones."""

    def __init__(self, oracle):
        self.oracle = oracle
        self.uncond = 0

    def _count(self, conditional):
        self.uncond += not conditional

    def logits_kinds(self, pos, digest, kinds, kappa=None, inputs=None):
        for conditional in kinds:
            self._count(conditional)
        return self.oracle.logits_kinds(pos, digest, kinds, kappa, inputs)

    def logits_rows(self, positions, digests, conditional=True, kappas=None,
                    inputs=None):
        self._count(conditional)
        return self.oracle.logits_rows(positions, digests, conditional, kappas,
                                       inputs)


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


class TestNextTokenKernelCalls:
    @pytest.mark.parametrize("cfg_scale", [1.0, 1.5])
    def test_one_kernel_call_per_token(self, monkeypatch, cfg_scale):
        # under context a one-row step's query kinds share one one-row
        # kernel call, with or without guidance, and a verified window
        # emits its slots with none
        calls = 0
        kernel = _kernels_py.raw_logits

        def counted(*args):
            nonlocal calls
            calls += 1
            return kernel(*args)

        monkeypatch.setattr(_kernels_py, "raw_logits", counted)
        oracle = Oracle(OracleConfig(vocab=16, shape=(4, 4), seed=1,
                                     context_sensitivity=0.5))
        length = 40
        tokens, _, _ = next_token_generate(oracle, length, preset("llamagen"),
                                           RngStream(2), top_k=4,
                                           cfg_scale=cfg_scale)
        assert len(tokens) == length
        assert calls <= length


class FixedOracle:
    """Answers every query with the given conditional and unconditional
    logits, so that ``score`` passes them to the pipeline as they are."""

    def __init__(self, cond, uncond):
        self.logits = {True: cond, False: uncond}

    def logits_kinds(self, pos, digest, kinds, kappa=None, inputs=None):
        return [self.logits[k] for k in kinds]

    def logits_rows(self, positions, digests, conditional=True, kappas=None,
                    inputs=None):
        return self.logits[conditional]


def _overflowing(row):
    # finite logits whose largest, over 0.05, overflows
    return np.where(np.arange(row.shape[-1]) == 2, 1e308, 1e307)


def _with(value):
    def put(row):
        row = row.copy()
        row[..., 1] = value
        return row
    return put


def _at_floor(t):
    return np.full_like(t, 0.05) if np.ndim(t) else 0.05


# (cond transform, uncond transform or None without guidance, options,
# message); each transform takes and returns a row (1-D) or a stack
REFUSALS = {
    "nan": (_with(np.nan), None, {}, "empty support"),
    "3-D": (lambda a: a.reshape(1, 1, -1), None, {}, "1-D vector"),
    "V=0": (lambda a: a[..., :0], None, {}, "1-D vector"),
    "shape mismatch": (None, lambda a: a[..., 1:], {}, "mismatched"),
    "+inf guided": (_with(np.inf), lambda a: a, {}, "guidance"),
    "-inf guided": (None, _with(-np.inf), {}, "guidance"),
    "top_k=0": (None, None, {"top_k": 0}, "top-k"),
    "top_p=0": (None, None, {"top_p": 0.0}, "top-p"),
    "top_p=1.5": (None, None, {"top_p": 1.5}, "top-p"),
    "top_p=nan": (None, None, {"top_p": np.nan}, "top-p"),
    "t=0": (None, None, {"adjust_temperature": lambda t: t * 0.0},
            "nonpositive"),
    "t<0": (None, None, {"adjust_temperature": lambda t: -t}, "nonpositive"),
    "t=nan": (None, None, {"adjust_temperature": lambda t: t * np.nan},
              "nonpositive"),
    "overflow": (_overflowing, None, {"adjust_temperature": _at_floor},
                 "empty support"),
    "overflow top-k": (_overflowing, None,
                       {"adjust_temperature": _at_floor, "top_k": 3},
                       "empty support"),
}


class TestRefusals:
    """Every input the pipeline refuses is refused once it checks each input
    only at its boundary: by ``pipeline_probs`` and by ``score``, for one
    row and for a stack."""

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("stacked", [False, True], ids=["1-D", "stack"])
    @pytest.mark.parametrize("case", sorted(REFUSALS))
    def test_refused(self, case, stacked):
        fix_cond, fix_uncond, options, message = REFUSALS[case]
        rng = np.random.default_rng(3)
        cond = rng.normal(size=(3, 6) if stacked else 6)
        uncond = cond + rng.normal(size=cond.shape)
        if fix_cond is not None:
            cond = fix_cond(cond)
        uncond = None if fix_uncond is None else fix_uncond(uncond)
        cfg_scale = 1.0 if uncond is None else 1.5
        tp = preset("llamagen")
        with pytest.raises(ValueError, match=message):
            pipeline_probs(cond, uncond, cfg_scale, tp, **options)
        with pytest.raises(ValueError, match=message):
            score(FixedOracle(cond, uncond), [0, 1, 2] if stacked else 0, 0,
                  tp, cfg_scale=cfg_scale, **options)


class TestCheckCounts:
    """A count that host noise cannot move: each ``score`` call converts its
    logits with ``dist.as_logits`` at most twice (conditional and
    unconditional), and the decode loops draw without ``validate_probs``."""

    def count(self, monkeypatch):
        calls = {"as_logits": 0, "validate_probs": 0, "score": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in ("as_logits", "validate_probs"):
            monkeypatch.setattr(dist, name, counted(name, getattr(dist, name)))
        wrapped = counted("score", score)
        monkeypatch.setattr(decode, "score", wrapped)
        monkeypatch.setattr(speculative, "score", wrapped)
        return calls

    def test_next_token_under_context(self, monkeypatch):
        # at most one score call per token: a one-row step or a window
        calls = self.count(monkeypatch)
        oracle = Oracle(OracleConfig(vocab=64, shape=(8, 8), seed=1,
                                     context_sensitivity=0.5))
        tokens, _, _ = next_token_generate(oracle, 64, preset("llamagen"),
                                           RngStream(2), top_k=16,
                                           cfg_scale=1.5)
        assert len(tokens) == 64 and 0 < calls["score"] <= 64
        assert calls["as_logits"] <= 2 * calls["score"]
        assert calls["validate_probs"] == 0

    @pytest.mark.parametrize("kappa_bg,low,high", [
        # seq-context's config: long low-entropy runs verify in windows
        (0.9, 0.0, 0.4),
        # high entropy everywhere keeps decoding on one-row steps
        (0.1, 0.95, 1.0)], ids=["seq-context", "flat"])
    def test_next_token_score_calls_per_token(self, monkeypatch, kappa_bg,
                                              low, high):
        calls = self.count(monkeypatch)
        cfg = RunConfig(mode="next-token", vocab=64, height=64, width=64,
                        kappa_bg=kappa_bg, kappa_fg=0.1,
                        rect=(16, 16, 32, 32), preset="llamagen",
                        context_sensitivity=0.5, cfg_scale=1.5, top_k=16,
                        length=4096, seed=0)
        res = run(cfg)
        assert res.model_invocations == 4096
        assert low <= calls["score"] / 4096 <= high
        assert calls["as_logits"] <= 2 * calls["score"]
        assert calls["validate_probs"] == 0

    def test_jacobi_under_context(self, monkeypatch):
        calls = self.count(monkeypatch)
        prof = profile_rect((16, 16), 0.95, 0.05, (4, 4, 8, 9))
        oracle = Oracle(OracleConfig(vocab=64, shape=(16, 16), profile=prof,
                                     seed=3, context_sensitivity=1.0))
        tokens, stats, _, _ = jacobi_decode(
            oracle, 256, 16, TempParams(0.5, 3.0, 0.2),
            SpecAcceptParams(8.0, 16.0, ENTROPY_AWARE), RngStream(3))
        assert len(tokens) == 256
        assert calls["score"] == stats.model_invocations
        assert calls["as_logits"] <= 2 * calls["score"]
        assert calls["validate_probs"] == 0


class TestNextTokenLongGolden:
    def test_golden_across_noise_chunks(self):
        # 2 * 512 + 3 tokens at V = 64 cross two chunks of the position
        # noise and wrap the 256-position grid four times, with guidance
        # and context. Recorded (tokens as float64 bytes) at commit
        # 24e9c0a, whose one-row query hashed the whole row itself.
        length = 2 * 512 + 3
        assert length > 2 * (_kernels_py._BLOCK_ELEMS // 64)
        oracle = Oracle(OracleConfig(
            vocab=64, shape=(16, 16),
            profile=profile_rect((16, 16), 0.9, 0.1, (4, 4, 8, 8)), seed=7,
            context_sensitivity=0.5))
        tokens, eps, temps = next_token_generate(
            oracle, length, preset("llamagen"), RngStream(9), top_k=16,
            cfg_scale=1.5)
        assert len(tokens) == length
        assert tokens[:8] == [39, 20, 4, 30, 0, 56, 62, 58]
        assert float_digest(tokens) == "40eae20490566be9"
        assert float_digest(eps) == "225cb8a00efc18c8"
        assert float_digest(temps) == "2b5320e04274bd09"


def one_position_loop(oracle, length, tp, rng, **options):
    """Next-token decoding under context one position at a time, as the
    reference: score the position on its prefix's digest, draw with the
    next uniform, append the token."""
    running = _kernels_py.RunningDigest()
    tokens, eps_list, temps = [], [], []
    for pos in range(length):
        probs, eps, t = score(oracle, pos, running.digest(), tp, **options)
        token = dist.inverse_cdf(probs, rng.uniform())
        running.append((token,), (pos,))
        tokens.append(token)
        eps_list.append(eps)
        temps.append(float(t))
    return tokens, eps_list, temps


class TestVerifiedWindows:
    """Next-token decoding under context verifies runs of drafts in
    batched windows; every token, entropy and temperature must equal the
    one-position loop's, bit for bit."""

    CHUNK = 8  # positions per span, and the largest window

    @pytest.mark.parametrize("context", [0.1, 0.5, 1.0])
    @pytest.mark.parametrize("cfg_scale", [1.0, 1.5])
    @pytest.mark.parametrize("filters", [{}, {"top_k": 5}, {"top_p": 0.8}],
                             ids=["plain", "top-k", "top-p"])
    def test_matches_the_one_position_loop(self, monkeypatch, context,
                                           cfg_scale, filters):
        # low-entropy rows around a high-entropy rectangle, so runs of
        # verified drafts end in mismatches
        oracle = Oracle(OracleConfig(
            vocab=16, shape=(8, 8),
            profile=profile_rect((8, 8), 0.9, 0.1, (2, 2, 4, 4)), seed=5,
            context_sensitivity=context))
        tp = preset("llamagen")
        options = dict(filters, cfg_scale=cfg_scale)
        length = 200
        want = one_position_loop(oracle, length, tp, RngStream(4), **options)

        calls, spans = [], []
        scored = decode.score
        derive = Oracle.position_inputs

        def recording(oracle, positions, *args, **kwargs):
            calls.append(positions if isinstance(positions, int)
                         else (int(positions[0]), len(positions)))
            return scored(oracle, positions, *args, **kwargs)

        def position_inputs(self, positions, *args, **kwargs):
            spans.append((positions.start, positions.stop))
            return derive(self, positions, *args, **kwargs)

        monkeypatch.setattr(decode, "score", recording)
        monkeypatch.setattr(Oracle, "position_inputs", position_inputs)
        monkeypatch.setattr(decode, "_BLOCK_ELEMS", self.CHUNK * 16)
        got = next_token_generate(oracle, length, tp, RngStream(4),
                                  **options)
        assert got[0] == want[0]
        assert float_digest(got[1]) == float_digest(want[1])
        assert float_digest(got[2]) == float_digest(want[2])

        # a window is followed by a window at its end where every slot
        # verified, and by a one-row step after its first mismatch
        windows = [(c, nxt) for c, nxt in zip(calls, calls[1:] + [length])
                   if not isinstance(c, int)]
        assert max(m for (_, m), _ in windows) == self.CHUNK
        assert any(not isinstance(nxt, int) and nxt[0] == p + m
                   for (p, m), nxt in windows)
        assert any(isinstance(nxt, int) and nxt < p + m
                   for (p, m), nxt in windows)
        # a span re-derived before its last position was decoded
        assert any(start < stop for (_, stop), (start, _)
                   in zip(spans, spans[1:]))


# 8x8 at V = 16, as the goldens: mask and scale under context, next-token
# at context 0 over a length that crosses a grid
BLOCK_CONFIGS = [
    dict(mode="mask", context_sensitivity=0.5, steps=5),
    dict(mode="scale", context_sensitivity=0.5),
    dict(mode="next-token", length=100),
]


class TestScoreDrawBlocks:
    """``score_draw`` splits a query into blocks of ``_BLOCK_ELEMS //
    vocab`` rows, and no golden reaches a second block; with the block cut
    to a few rows every decode must equal the one-block run exactly."""

    @staticmethod
    def decode_arrays(cfg):
        res = run(cfg)
        return [res.tokens, res.entropy_map.view(np.int64),
                np.asarray(res.temps).view(np.int64),
                np.asarray(res.scale_mean_entropy or []).view(np.int64)]

    @pytest.mark.parametrize("keys", BLOCK_CONFIGS,
                             ids=lambda k: k["mode"])
    @pytest.mark.parametrize("options", [
        dict(cfg_scale=c, **f) for c, f in itertools.product(
            (1.0, 1.5), ({}, dict(top_k=5), dict(top_p=0.8)))],
        ids=lambda o: "-".join(f"{k}={v}" for k, v in o.items()))
    def test_blocks_of_a_few_rows_match(self, monkeypatch, keys, options):
        cfg = RunConfig(vocab=16, height=8, width=8, kappa_bg=0.9,
                        kappa_fg=0.1, rect=(2, 2, 4, 4), preset="llamagen",
                        seed=3, **keys, **options)
        want = self.decode_arrays(cfg)
        sizes = []

        def recording(oracle, positions, *args, **kwargs):
            sizes.append(len(positions))
            return score(oracle, positions, *args, **kwargs)

        monkeypatch.setattr(decode, "score", recording)
        for rows in (1, 3, 7):
            monkeypatch.setattr(decode, "_BLOCK_ELEMS", rows * cfg.vocab)
            sizes.clear()
            got = self.decode_arrays(cfg)
            assert max(sizes) == rows
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a, b)
