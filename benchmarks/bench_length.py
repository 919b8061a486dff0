"""Time decoding per token across sequence lengths and grid sizes, for
source checkouts.

    python3 benchmarks/bench_length.py --out BENCH_21.json \
        parent=../parent-export change=.

The north star asks that decode cost grow linearly with sequence length.
Each ``LABEL=ROOT`` names a checkout. Every timing runs in a fresh
interpreter with ``ROOT/src`` on its path, so it measures that checkout's
own program: it decodes through ``cli.run``, once on a small warm-up and
then at the size timed, and reads the second run's ``wall_time`` (the
decode, without the oracle's set-up) and the interpreter's peak resident
set (``ru_maxrss``) after it. Each (setting, size) is timed in ``REPEATS``
rounds, every round timing each checkout once in an order that alternates
from round to round, so that host drift falls on all of them alike; a
checkout's time is its best round and its peak the highest.

The length sweep uses the 64x64 grid of perfbench's seq-context workload:
V = 64, kappa 0.9 outside and 0.1 inside the rectangle 16,16,32,32, the
llamagen preset, seed 0, and ``WARMUP`` tokens first.

- ``next-token``: seq-context itself, context 0.5, guidance 1.5, top-k 16;
- ``spec-entropy c=0.5`` and ``spec-baseline c=1.0``: Jacobi decoding with
  a 16-slot window at context 0.5 and 1.0.

The grid sweep decodes square grids of ``SIDES`` cells a side with the
same vocabulary, kappas and preset, the rectangle scaled with the grid (a
quarter of the side in from the corner, half the side across), after an
8x8 warm-up:

- ``mask``: the mask-guided workload's options (context 0.4, guidance
  1.5, top-k 16, 16 steps);
- ``scale``: the scale-ladder workload's options (context 0.5, guidance
  1.5, top-p 0.9, beta 0.3, floor temperature 0.05) on the default
  ladder, whose tokens are every scale's cells.

For each checkout and setting it reports ``us_per_token`` at each size,
``slope``, the least-squares slope of log wall time against log tokens
(1.0 is linear cost), and ``maxrss_mb``; every checkout after the first
also gets ``speedup``, the first checkout's time over its own, at each
size. It asserts nothing. The length sweep goes under the key
``"length"`` and the grid sweep under ``"grid_sizes"`` of the ``--out``
JSON file, next to whatever the file already holds; the file is created
if it does not exist.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

import numpy as np

LENGTHS = (2048, 4096, 8192, 16384)
SIDES = (32, 64, 128, 256)
REPEATS = 3
WARMUP = 256
WARMUP_SIDE = 8
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
GRID_SETTINGS = {
    "mask": dict(mode="mask", context_sensitivity=0.4, cfg_scale=1.5,
                 top_k=16, steps=16),
    "scale": dict(mode="scale", context_sensitivity=0.5, cfg_scale=1.5,
                  top_p=0.9, beta=0.3, floor_temperature=0.05),
}


def square(side: int) -> dict:
    """``GRID`` at ``side`` x ``side``, its rectangle scaled with it."""
    q = side // 4
    return dict(GRID, height=side, width=side, rect=(q, q, 2 * q, 2 * q))


def measure(setting: str, size: int) -> dict:
    """The decode wall time and tokens of one warm run, and the peak
    resident set after it, in this interpreter."""
    import resource

    from entropix.cli import run
    from entropix.config import RunConfig
    if setting in SETTINGS:
        cfgs = [RunConfig(length=n, **GRID, **SETTINGS[setting])
                for n in (WARMUP, size)]
    else:
        cfgs = [RunConfig(**square(n), **GRID_SETTINGS[setting])
                for n in (WARMUP_SIDE, size)]
    for cfg in cfgs:
        res = run(cfg)
    return {"wall": res.wall_time, "tokens": res.tokens_emitted,
            "maxrss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024}


def timed(root: str, setting: str, size: int) -> dict:
    """``measure`` in a fresh interpreter on the checkout at ``root``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--time", setting,
         str(size)], cwd=root, env=env, stdout=subprocess.PIPE, text=True,
        check=True)
    return json.loads(proc.stdout)


def sweep(checkouts, settings, sizes) -> dict:
    """Per checkout and setting: ``us_per_token``, ``slope``,
    ``maxrss_mb`` and, after the first checkout, ``speedup``, each with one
    entry per size."""
    best = {label: {s: [] for s in settings} for label, _ in checkouts}
    for setting in settings:
        for size in sizes:
            runs = {label: [] for label, _ in checkouts}
            for rnd in range(REPEATS):
                order = checkouts if rnd % 2 == 0 else checkouts[::-1]
                for label, root in order:
                    runs[label].append(timed(root, setting, size))
            for label, _ in checkouts:
                m = min(runs[label], key=lambda r: r["wall"])
                m["maxrss_mb"] = max(r["maxrss_mb"] for r in runs[label])
                best[label][setting].append(m)
                print(f"{setting} {size} {label}: "
                      f"{m['wall'] / m['tokens'] * 1e6:.1f} us/token, "
                      f"{m['maxrss_mb']:.1f} MB", file=sys.stderr)
    first = checkouts[0][0]
    records = {}
    for label, _ in checkouts:
        records[label] = {}
        for setting, ms in best[label].items():
            w = [m["wall"] for m in ms]
            n = [m["tokens"] for m in ms]
            row = {"tokens": n,
                   "us_per_token": [x / k * 1e6 for x, k in zip(w, n)],
                   "slope": float(np.polyfit(np.log(n), np.log(w), 1)[0]),
                   "maxrss_mb": [m["maxrss_mb"] for m in ms]}
            if label != first:
                row["speedup"] = [a["wall"] / x for a, x in
                                  zip(best[first][setting], w)]
            records[label][setting] = row
    return records


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("checkouts", nargs="*", metavar="LABEL=ROOT")
    ap.add_argument("--out")
    ap.add_argument("--time", nargs=2, metavar=("SETTING", "SIZE"),
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.time:
        print(json.dumps(measure(args.time[0], int(args.time[1]))))
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

    machine = {"nproc": len(os.sched_getaffinity(0)),
               "python": platform.python_version(),
               "numpy": np.__version__}
    doc = {}
    if os.path.exists(args.out):
        with open(args.out) as f:
            doc = json.load(f)
    doc["length"] = {
        "machine": machine, "grid": GRID, "settings": SETTINGS,
        "lengths": list(LENGTHS), "repeats": REPEATS, "warmup": WARMUP,
        "records": sweep(checkouts, SETTINGS, LENGTHS)}
    doc["grid_sizes"] = {
        "machine": machine, "grid": {k: v for k, v in GRID.items()
                                     if k not in ("height", "width", "rect")},
        "settings": GRID_SETTINGS, "sides": list(SIDES), "repeats": REPEATS,
        "warmup_side": WARMUP_SIDE,
        "records": sweep(checkouts, GRID_SETTINGS, SIDES)}
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
