"""Record the numpy lane costs behind two choices of the package.

    PYTHONPATH=src python3 benchmarks/bench_numpy_lanes.py --out BENCH_12.json

``np.exp`` is several times slower at -inf than on a normal input, which is
why top-k hands the second softmax a keep mask instead of ``EXCLUDED``
lanes (``dist._shifted_exp``), and ``_kernels_py._SPLIT_MIN_ELEMS`` is the
smallest hash block that converts uint64 to float64 from its two halves
instead of by numpy's cast. This script measures, on the machine it runs
on:

- ``exp``: the cost per lane of ``np.exp`` over 2^20 equal inputs, for
  inputs from the normal range down through the subnormal results to exact
  0 and -inf;
- ``cast``: the multiply by 2^-64 of one 32,768-value hash block, through
  numpy's uint64 cast, through an int64 cast (not exact above 2^63; timed
  for reference) and through the split conversion, next to one splitmix64
  mix of the same block;
- ``crossover``: ``raw_logits_rows`` at V = 64 and c = 0.5 for a range of
  row counts, with every block converted by the cast and with every block
  split, and the ratio split / cast.

Each figure is the best of several repeats. The results go under the key
``"numpy_lanes"`` of the ``--out`` JSON file, next to whatever the file
already holds (``benchmarks/bench_e2e.py`` writes the end-to-end pairs);
the file is created if it does not exist. Nothing is asserted.
"""

import argparse
import json
import os
import platform
import sys
import timeit

import numpy as np

from entropix import _kernels_py as k

EXP_LANES = 1 << 20
EXP_INPUTS = (-1.0, -300.0, -690.0, -700.0, -704.0, -706.0, -707.0, -708.0,
              -710.0, -720.0, -740.0, -745.0, -745.2, -746.0, -800.0,
              float("-inf"))
CROSSOVER_ROWS = (8, 16, 32, 48, 64, 96, 128, 192, 256, 512, 4096)
VOCAB = 64


def best(fn, number: int, repeat: int = 7) -> float:
    """Best time of one call of fn, in seconds."""
    return min(timeit.repeat(fn, number=number, repeat=repeat)) / number


def exp_costs() -> list:
    out = np.empty(EXP_LANES)
    rows = []
    for x in EXP_INPUTS:
        a = np.full(EXP_LANES, x)
        s = best(lambda: np.exp(a, out=out), number=5)
        rows.append({"input": x, "result": float(np.exp(x)),
                     "ns_per_lane": s / EXP_LANES * 1e9})
    return rows


def cast_costs() -> dict:
    rng = np.random.default_rng(0)
    z0 = rng.integers(0, 1 << 64, size=k._BLOCK_ELEMS, dtype=np.uint64)
    z, t, f = z0.copy(), np.empty_like(z0), np.empty(z0.shape)
    zi = z0.view(np.int64)

    def restore():
        np.copyto(z, z0)

    def split():
        np.copyto(z, z0)
        np.multiply(k._u64_to_f64(z, t), k._INV_2_64, out=f)

    def mix():
        np.copyto(z, z0)
        k._mix64_into(z, t)

    copy = best(restore, 400)
    return {"block_values": k._BLOCK_ELEMS,
            "uint64_cast_us": best(
                lambda: np.multiply(z0, k._INV_2_64, out=f), 400) * 1e6,
            "int64_cast_us": best(
                lambda: np.multiply(zi, k._INV_2_64, out=f), 400) * 1e6,
            "split_us": (best(split, 400) - copy) * 1e6,
            "mix64_us": (best(mix, 400) - copy) * 1e6}


def crossover() -> list:
    rng = np.random.default_rng(1)
    saved = k._SPLIT_MIN_ELEMS
    rows = []
    try:
        for n in CROSSOVER_ROWS:
            pk = rng.integers(0, 1 << 64, size=n, dtype=np.uint64)
            ctx = rng.integers(0, 1 << 64, size=n, dtype=np.uint64)
            number = max(5, 20000 // n)
            times = {}
            for name, limit in (("cast", sys.maxsize), ("split", 0)):
                k._SPLIT_MIN_ELEMS = limit
                times[name] = best(
                    lambda: k.raw_logits_rows(pk, ctx, 0.5, VOCAB), number)
            rows.append({"rows": n, "values": n * VOCAB,
                         "cast_us": times["cast"] * 1e6,
                         "split_us": times["split"] * 1e6,
                         "split_over_cast": times["split"] / times["cast"]})
    finally:
        k._SPLIT_MIN_ELEMS = saved
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    features = np._core._multiarray_umath.__cpu_features__
    record = {
        "machine": {"nproc": len(os.sched_getaffinity(0)),
                    "python": platform.python_version(),
                    "numpy": np.__version__,
                    "simd": sorted(f for f in ("AVX2", "AVX512F", "AVX512_SKX")
                                   if features.get(f))},
        "constants": {"_kernels_py._SPLIT_MIN_ELEMS": k._SPLIT_MIN_ELEMS},
        "exp": exp_costs(),
        "cast": cast_costs(),
        "crossover": crossover(),
    }
    doc = {}
    if os.path.exists(args.out):
        with open(args.out) as f:
            doc = json.load(f)
    doc["numpy_lanes"] = record
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    json.dump(record, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
