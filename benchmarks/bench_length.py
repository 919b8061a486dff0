"""Time decoding per token across sequence lengths, for source checkouts.

    python3 benchmarks/bench_length.py --out BENCH_15.json \
        parent=../parent-export change=.

The north star asks that decode cost grow linearly with sequence length.
Each ``LABEL=ROOT`` names a checkout. Every timing runs in a fresh
interpreter with ``ROOT/src`` on its path, so it measures that checkout's
own program: it decodes through ``cli.run``, once at ``WARMUP`` tokens and
then at the length timed, and reads the second run's ``wall_time`` (the
decode, without the oracle's set-up). Each (setting, length) is timed in
``REPEATS`` rounds, every round timing each checkout once in an order that
alternates from round to round, so that host drift falls on all of them
alike; a checkout's time is its best round.

All settings use the 64x64 grid of perfbench's seq-context workload: V =
64, kappa 0.9 outside and 0.1 inside the rectangle 16,16,32,32, the
llamagen preset, seed 0.

- ``next-token``: seq-context itself, context 0.5, guidance 1.5, top-k 16;
- ``spec-entropy c=0.5`` and ``spec-baseline c=1.0``: Jacobi decoding with
  a 16-slot window at context 0.5 and 1.0.

For each checkout and setting it reports ``us_per_token`` at each length
and ``slope``, the least-squares slope of log wall time against log
length (1.0 is linear cost); every checkout after the first also gets
``speedup``, the first checkout's time over its own, at each length. It
asserts nothing. The results go under the key ``"length"`` of the
``--out`` JSON file, next to whatever the file already holds; the file is
created if it does not exist.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

import numpy as np

LENGTHS = (2048, 4096, 8192, 16384)
REPEATS = 3
WARMUP = 256
GRID = dict(vocab=64, height=64, width=64, kappa_bg=0.9, kappa_fg=0.1,
            rect=(16, 16, 32, 32), preset="llamagen", seed=0)
SETTINGS = {
    "next-token": dict(mode="next-token", context_sensitivity=0.5,
                       cfg_scale=1.5, top_k=16),
    "spec-entropy c=0.5": dict(mode="spec-entropy", context_sensitivity=0.5,
                               window=16),
    "spec-baseline c=1.0": dict(mode="spec-baseline",
                                context_sensitivity=1.0, window=16),
}


def wall(setting: str, length: int) -> float:
    """The decode wall time of one warm run, in this interpreter."""
    from entropix.cli import run
    from entropix.config import RunConfig
    for n in (WARMUP, length):
        res = run(RunConfig(length=n, **GRID, **SETTINGS[setting]))
    return res.wall_time


def timed(root: str, setting: str, length: int) -> float:
    """``wall`` in a fresh interpreter on the checkout at ``root``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--time", setting,
         str(length)], cwd=root, env=env, stdout=subprocess.PIPE, text=True,
        check=True)
    return float(proc.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("checkouts", nargs="*", metavar="LABEL=ROOT")
    ap.add_argument("--out")
    ap.add_argument("--time", nargs=2, metavar=("SETTING", "LENGTH"),
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.time:
        print(wall(args.time[0], int(args.time[1])))
        return 0
    if not args.out or not args.checkouts:
        ap.error("give --out and at least one LABEL=ROOT")
    checkouts = []
    for item in args.checkouts:
        label, sep, root = item.partition("=")
        if not sep or not os.path.isdir(os.path.join(root, "src",
                                                     "entropix")):
            raise SystemExit(f"{item!r}: expected LABEL=ROOT of a checkout")
        checkouts.append((label, os.path.abspath(root)))

    walls = {label: {s: [] for s in SETTINGS} for label, _ in checkouts}
    for setting in SETTINGS:
        for length in LENGTHS:
            best = {}
            for rnd in range(REPEATS):
                order = checkouts if rnd % 2 == 0 else checkouts[::-1]
                for label, root in order:
                    t = timed(root, setting, length)
                    best[label] = min(t, best.get(label, t))
            for label, _ in checkouts:
                walls[label][setting].append(best[label])
                print(f"{setting} {length} {label}: "
                      f"{best[label] / length * 1e6:.1f} us/token",
                      file=sys.stderr)
    first = checkouts[0][0]
    records = {}
    for label, _ in checkouts:
        records[label] = {}
        for setting, w in walls[label].items():
            row = {"us_per_token": [x / n * 1e6 for x, n in zip(w, LENGTHS)],
                   "slope": float(np.polyfit(np.log(LENGTHS), np.log(w),
                                             1)[0])}
            if label != first:
                row["speedup"] = [a / b for a, b in
                                  zip(walls[first][setting], w)]
            records[label][setting] = row
    record = {
        "machine": {"nproc": len(os.sched_getaffinity(0)),
                    "python": platform.python_version(),
                    "numpy": np.__version__},
        "grid": GRID, "settings": SETTINGS, "lengths": list(LENGTHS),
        "repeats": REPEATS, "warmup": WARMUP, "records": records,
    }
    doc = {}
    if os.path.exists(args.out):
        with open(args.out) as f:
            doc = json.load(f)
    doc["length"] = record
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
