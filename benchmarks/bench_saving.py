"""Measure the entropy-aware rule's invocation saving at CLI lengths.

    PYTHONPATH=src python3 benchmarks/bench_saving.py --out BENCH_14.json

The paper claims near-lossless generation at about 85% of the inference
cost. ``bench_frontier.py`` measures the loss on sequence spaces small
enough to enumerate, but there every decode makes at least two oracle
invocations, so the saving has no room to show. This script measures the
cost alone, at the lengths the CLI runs: it decodes through ``cli.run`` the
config of perfbench's spec-context workload (16x16 grid, V = 64, kappa
0.95 outside and 0.05 inside the rectangle 4,4,8,9, context 1.0,
temperature (0.5, 3.0, 0.2), window 16) at every length in ``LENGTHS`` on
seeds ``SEEDS``, under the baseline rule and the entropy-aware rule with
e in {4, 8, 16}, lambda = 16, in both decay forms. For each length and
rule it reports

- ``invocations_per_token``: oracle invocations over emitted tokens,
  pooled over the seeds;
- ``ratio``: the rule's invocations over the baseline rule's at the same
  seeds and length (1 - ratio is the saving), with the smallest and
  largest per-seed ratio;
- ``acceptance_rate``: accepted drafts over acceptance tests.

It asserts only that every decode emits the length asked for, and exits 1
otherwise. The results go under the key ``"saving"`` of the ``--out`` JSON
file, next to whatever the file already holds; the file is created if it
does not exist.
"""

import argparse
import json
import os
import platform
import sys
import time

import numpy as np

from entropix import backend
from entropix.cli import run
from entropix.config import RunConfig

LENGTHS = (256, 1024, 4096)
SEEDS = range(20)
SPEC_CONTEXT = dict(vocab=64, height=16, width=16, kappa_bg=0.95,
                    kappa_fg=0.05, rect=(4, 4, 8, 9), context_sensitivity=1.0,
                    t0=0.5, alpha=3.0, theta=0.2, window=16)
RULES = [("baseline", dict(mode="spec-baseline"))] + [
    (f"entropy e={e:g} {form}",
     dict(mode="spec-entropy", accept_e=e, accept_lambda=16.0,
          literal_noise_decay=form == "literal"))
    for e in (4.0, 8.0, 16.0) for form in ("bounded", "literal")]


def decode(length: int, seed: int, keys: dict):
    """(invocations, accept tests, accepted) of one CLI decode; raises if
    it emits other than ``length`` tokens."""
    res = run(RunConfig(seed=seed, length=length, **SPEC_CONTEXT, **keys))
    if res.tokens.size != length:
        raise AssertionError(f"{keys} seed {seed} emitted "
                             f"{res.tokens.size} of {length} tokens")
    return (res.model_invocations, res.stats.accept_tests,
            res.stats.accepted)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    start = time.perf_counter()
    rows = []
    try:
        for length in LENGTHS:
            base = None
            for name, keys in RULES:
                runs = np.array([decode(length, seed, keys)
                                 for seed in SEEDS], dtype=np.int64)
                if base is None:
                    base = runs[:, 0]  # the baseline rule is first
                inv, tests, accepted = runs.sum(axis=0)
                per_seed = runs[:, 0] / base
                row = {"length": length, "rule": name,
                       "invocations_per_token":
                           float(inv) / (length * len(SEEDS)),
                       "ratio": float(inv / base.sum()),
                       "ratio_min": float(per_seed.min()),
                       "ratio_max": float(per_seed.max()),
                       "acceptance_rate":
                           float(accepted / tests) if tests else 0.0}
                rows.append(row)
                print(json.dumps(row), file=sys.stderr)
    except AssertionError as exc:
        print(f"short decode: {exc}", file=sys.stderr)
        return 1
    record = {
        "machine": {"nproc": len(os.sched_getaffinity(0)),
                    "python": platform.python_version(),
                    "numpy": np.__version__, "backend": backend.BACKEND},
        "config": SPEC_CONTEXT,
        "seeds": [SEEDS.start, SEEDS.stop - 1],
        "wall_s": time.perf_counter() - start,
        "rows": rows,
    }
    doc = {}
    if os.path.exists(args.out):
        with open(args.out) as f:
            doc = json.load(f)
    doc["saving"] = record
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
