"""Measure what the entropy-aware acceptance rule gives up: its loss frontier.

    PYTHONPATH=src python3 benchmarks/bench_frontier.py --out BENCH_13.json

The paper claims near-lossless generation at about 85% of the inference
cost. The loss is measured here on tiny sequence spaces, where the exact
law of next-token sampling can be enumerated
(``tests/test_decode.py::sequence_law``): V = 3 with L = 4 and V = 8 with
L = 2. For every setting (vocabulary and length, context sensitivity,
window, rule) ``jacobi_decode`` decodes ``DECODES`` sequences on seeds
0, 1, ..., and the script reports

- ``tv``: the total-variation distance of the decoded sequences' empirical
  law from the exact law;
- ``kl``: KL(empirical || exact), in nats;
- ``saving``: 1 - the rule's oracle invocations / the baseline rule's
  invocations at the same seeds, context and window;
- ``tv_floor``: the TV distance that an exact sampler making the same
  number of draws reaches by chance, from ``FLOOR_REPLICATES`` multinomial
  samples of the exact law (median and 99th percentile).

The rules are the baseline rule and the entropy-aware rule with e in
{4, 8, 16}, lambda = 16, in both decay forms. The baseline rule keeps the
law exactly, so its one assertion is that its TV is at most the floor's
99th percentile. The entropy-aware rule is lossy by design, and nothing is
asserted about it. The results go under the key ``"frontier"`` of the
``--out`` JSON file, next to whatever the file already holds; the file is
created if it does not exist.
"""

import argparse
import json
import os
import platform
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "tests"))
from test_decode import sequence_law  # noqa: E402

from entropix.oracle import Oracle, OracleConfig  # noqa: E402
from entropix.rng import RngStream  # noqa: E402
from entropix.speculative import (BASELINE, ENTROPY_AWARE,  # noqa: E402
                                  SpecAcceptParams, jacobi_decode)
from entropix.temperature import TempParams  # noqa: E402

SPACES = ((3, 4), (8, 2))  # (vocab, length), V^L sequences each
CONTEXTS = (0.5, 1.0)
WINDOWS = (2, 4)
RULES = [("baseline", SpecAcceptParams(mode=BASELINE))] + [
    (f"entropy e={e:g} {form}",
     SpecAcceptParams(e=e, lam=16.0, mode=ENTROPY_AWARE,
                      literal_noise_decay=form == "literal"))
    for e in (4.0, 8.0, 16.0) for form in ("bounded", "literal")]
# the oracle and temperatures of the exact-law test of jacobi_decode
TP = TempParams(0.5, 3.0, 0.2)
# decoded sequences per setting: 56 settings at about 0.45 ms per tiny
# decode finish in under 10 minutes
DECODES = 12000
FLOOR_REPLICATES = 2000
FLOOR_QUANTILES = (0.5, 0.99)


def make_oracle(vocab: int, context: float) -> Oracle:
    return Oracle(OracleConfig(vocab=vocab, shape=(2, 2),
                               profile=np.full((2, 2), 0.05), seed=5,
                               context_sensitivity=context))


def decode_counts(oracle, vocab, length, window, sp, decodes):
    """(sequence counts in ``itertools.product`` order, total invocations,
    accept tests, accepted drafts) over seeds 0 .. decodes - 1."""
    counts = np.zeros(vocab ** length, dtype=np.int64)
    place = vocab ** np.arange(length - 1, -1, -1)
    invocations = tests = accepted = 0
    for seed in range(decodes):
        tokens, stats, _, _ = jacobi_decode(oracle, length, window, TP, sp,
                                            RngStream(seed))
        counts[int(np.dot(tokens, place))] += 1
        invocations += stats.model_invocations
        tests += stats.accept_tests
        accepted += stats.accepted
    return counts, invocations, tests, accepted


def distances(counts, law):
    """(TV, KL(empirical || exact)) of sequence counts from a law."""
    emp = counts / counts.sum()
    seen = emp > 0
    return (0.5 * float(np.abs(emp - law).sum()),
            float(np.sum(emp[seen] * np.log(emp[seen] / law[seen]))))


def tv_floor(law, decodes, rng):
    """Quantiles of the TV distance of ``decodes`` exact draws from law."""
    samples = rng.multinomial(decodes, law, size=FLOOR_REPLICATES)
    tv = 0.5 * np.abs(samples / decodes - law).sum(axis=1)
    return {f"q{q:g}": float(np.quantile(tv, q)) for q in FLOOR_QUANTILES}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    start = time.perf_counter()
    rows, failures = [], []
    for vocab, length in SPACES:
        for context in CONTEXTS:
            oracle = make_oracle(vocab, context)
            _, law = sequence_law(oracle, TP, vocab, length)
            law = law / law.sum()
            floor = tv_floor(law, DECODES, np.random.default_rng(0))
            for window in WINDOWS:
                base_invocations = None
                for name, sp in RULES:
                    counts, inv, tests, acc = decode_counts(
                        oracle, vocab, length, window, sp, DECODES)
                    if base_invocations is None:
                        base_invocations = inv  # the baseline rule is first
                    tv, kl = distances(counts, law)
                    row = {"vocab": vocab, "length": length,
                           "context": context, "window": window,
                           "rule": name, "tv": tv, "kl": kl,
                           "saving": 1.0 - inv / base_invocations,
                           "invocations_per_decode": inv / DECODES,
                           "accept_tests": tests,
                           "acceptance_rate": acc / tests if tests else 0.0,
                           "tv_floor": floor}
                    rows.append(row)
                    print(json.dumps(row), file=sys.stderr)
                    if sp.mode == BASELINE and tv > floor["q0.99"]:
                        failures.append(row)
    record = {
        "machine": {"nproc": len(os.sched_getaffinity(0)),
                    "python": platform.python_version(),
                    "numpy": np.__version__},
        "decodes": DECODES, "floor_replicates": FLOOR_REPLICATES,
        "temperature": vars(TP), "wall_s": time.perf_counter() - start,
        "rows": rows,
    }
    doc = {}
    if os.path.exists(args.out):
        with open(args.out) as f:
            doc = json.load(f)
    doc["frontier"] = record
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    for row in failures:
        print(f"baseline rule off the exact law: {row}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
