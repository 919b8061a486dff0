"""Time next-token decoding's two steps under context per emitted slot: a
verified window of w slots against the one-row step.

    PYTHONPATH=src python3 benchmarks/bench_window.py --out BENCH_25.json

``decode._MIN_WINDOW`` is the fewest slots a window opens with, so it
should be the smallest w at which a window whose slots all verify costs
less per slot than one-row steps. This script measures that crossover on
the checkout whose ``src`` is on the path, at perfbench's seq-context
options: V = 64, context 0.5, guidance 1.5, top-k 16, the llamagen preset,
a kappa of 0.9 everywhere (the low-entropy rows where windows open), and
seed 0. It times, on positions 0 to 511 of one span of position inputs:

- the one-row step: ``decode.score`` of one position on its digest, with
  its entry of the span, ``dist.inverse_cdf`` and the digest's append;
- a window of w slots: ``RunningDigest.continuation`` of w drafts, the
  slots' digests, one batched ``decode.score`` with the span,
  ``dist._sample_rows`` and the comparison with the drafts.

Each cost is the best of ``REPEATS`` rounds, a round timing each step on
``SLOTS`` consecutive slots, in an order that alternates from round to
round. It writes, under the key ``"crossover"`` of the ``--out`` JSON file
(created if it does not exist, other keys kept): microseconds per slot of
the one-row step and of each window size, and the smallest window size
whose per-slot cost is below the one-row step's. It asserts nothing.
"""

import argparse
import json
import os
import platform
import sys
import time

import numpy as np

from entropix import decode, dist
from entropix._kernels_py import _mix64_vec
from entropix.config import RunConfig, build_run
from entropix.oracle import RunningDigest

SIZES = (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64)
SLOTS = 512
REPEATS = 7
CONFIG = dict(mode="next-token", vocab=64, height=64, width=64,
              kappa_bg=0.9, context_sensitivity=0.5, cfg_scale=1.5,
              top_k=16, preset="llamagen", seed=0)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    cfg = RunConfig(**CONFIG)
    r = build_run(cfg)
    oracle, tp = r.oracle, r.tp
    options = dict(top_k=cfg.top_k, cfg_scale=cfg.cfg_scale)
    span = oracle.position_inputs(range(SLOTS),
                                  decode.query_kinds(cfg.cfg_scale))
    rows = list(span.rows())
    drafts = decode._drafts(span, 0)
    u = np.random.default_rng(0).random(SLOTS)

    def one_row():
        running = RunningDigest()
        for pos in range(SLOTS):
            probs, _, _ = decode.score(oracle, pos, running.digest(), tp,
                                       inputs=rows[pos], **options)
            token = dist.inverse_cdf(probs, u[pos])
            running.append((token,), (pos,))
        return SLOTS

    def windows(w):
        running = RunningDigest()
        for pos in range(0, SLOTS - w + 1, w):
            positions = np.arange(pos, pos + w)
            folds = running.continuation(drafts[pos:pos + w], positions)
            probs, _, _ = decode.score(oracle, positions,
                                       _mix64_vec(folds[:w]), tp,
                                       inputs=span, **options)
            drawn = dist._sample_rows(probs, u[pos:pos + w])
            np.flatnonzero(drawn != drafts[pos:pos + w])
            running.advance(folds[w])
        return SLOTS - SLOTS % w

    steps = [("one-row", one_row)] + [
        (w, lambda w=w: windows(w)) for w in SIZES]
    best = {name: float("inf") for name, _ in steps}
    for rnd in range(REPEATS):
        for name, step in (steps if rnd % 2 == 0 else steps[::-1]):
            start = time.perf_counter()
            slots = step()
            per_slot = (time.perf_counter() - start) / slots * 1e6
            best[name] = min(best[name], per_slot)
    one = best.pop("one-row")
    below = [w for w in SIZES if best[w] < one]
    record = {
        "machine": {"nproc": len(os.sched_getaffinity(0)),
                    "python": platform.python_version(),
                    "numpy": np.__version__},
        "config": CONFIG, "slots": SLOTS, "repeats": REPEATS,
        "one_row_us_per_slot": one,
        "window_us_per_slot": {str(w): best[w] for w in SIZES},
        "smallest_cheaper_window": below[0] if below else None,
        "min_window": decode._MIN_WINDOW}
    for w in SIZES:
        print(f"w={w}: {best[w]:.1f} us/slot, "
              f"{best[w] * w:.1f} us/window (one-row {one:.1f})",
              file=sys.stderr)
    doc = {}
    if os.path.exists(args.out):
        with open(args.out) as f:
            doc = json.load(f)
    doc["crossover"] = record
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
