"""Names that no program path calls.

Each name in OFF_PATH is called only by tests and by the benchmark's
reference and tracer code, so it may be deleted once those no longer need
it. Every mode decodes here with each of them replaced by a function that
raises, so a program path that starts calling one fails this test.
"""

import itertools
import sys

import pytest

from entropix import _kernels_py, dist, speculative, temperature
from entropix.cli import run
from entropix.config import MODES, RunConfig
from entropix.oracle import Oracle, RunningDigest
from entropix.rng import RngStream

OFF_PATH = [
    (temperature, "sample_entropy_aware"),
    (dist, "sample_categorical"),
    (dist, "sample_rows"),
    (dist, "validate_probs"),
    (dist, "softmax"),  # public reference, kept
    (dist, "top_p_filter"),  # public reference, kept
    (dist, "top_p_softmax"),  # public reference, kept
    (speculative, "baseline_accept"),
    (speculative, "entropy_accept"),
    (speculative, "entropy_threshold"),
    (speculative, "residual_resample"),
    (Oracle, "logits_at"),
    (Oracle, "logits_from_digest"),
    (Oracle, "digest_of"),
    (RunningDigest, "continuation_digests"),
    (_kernels_py, "prefix_fold"),
    (RngStream, "integer"),
]


def _raiser(name):
    def called(*args, **kwargs):
        raise AssertionError(f"{name} was called")
    return called


@pytest.fixture
def off_path(monkeypatch):
    """Replace every OFF_PATH name with a raiser, and rebind each name that
    an entropix module imported it under; yields the originals."""
    modules = [m for name, m in list(sys.modules.items())
               if name == "entropix" or name.startswith("entropix.")]
    originals = []
    for owner, attr in OFF_PATH:
        original = getattr(owner, attr)
        originals.append(original)
        raiser = _raiser(f"{owner.__name__}.{attr}")
        monkeypatch.setattr(owner, attr, raiser)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    monkeypatch.setattr(m, key, raiser)
    yield originals


def test_raisers_replace_every_reference(off_path):
    for owner, attr in OFF_PATH:
        with pytest.raises(AssertionError, match=attr):
            getattr(owner, attr)()
    for name, m in list(sys.modules.items()):
        if name == "entropix" or name.startswith("entropix."):
            held = [k for k, v in vars(m).items()
                    if any(v is o for o in off_path)]
            assert not held, (name, held)


@pytest.mark.parametrize("mode", MODES)
def test_no_mode_calls_an_off_path_name(off_path, mode):
    for context, guidance, extra in itertools.product(
            (0.0, 0.5), (1.0, 1.5),
            ({}, {"top_k": 5}, {"top_p": 0.8},
             {"literal_noise_decay": True})):
        res = run(RunConfig(mode=mode, vocab=16, height=8, width=8,
                            kappa_bg=0.8, kappa_fg=0.1, rect=(2, 2, 4, 4),
                            context_sensitivity=context, cfg_scale=guidance,
                            steps=8, window=8, **extra))
        assert res.tokens.size == 64
