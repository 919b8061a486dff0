"""Compare two source checkouts in one interpreter, decode by decode.

    python3 benchmarks/bench_inprocess.py --out BENCH_26.json \
        parent=../parent-export change=.

The two arguments name the baseline checkout and the changed one. Both
checkouts' ``src/entropix`` are imported side by side in this process, each
under its own module objects, so one call of ``cli.run`` decodes with one
tree's code and the next with the other's. For each workload of
``perfbench/workloads.py`` (read from the checkout this script lies in, and
never edited), each tree first decodes the workload's warm-up config and
the full config once, untimed. Then each of ``PAIRS`` pairs, pair i on
seed i, decodes the full config in both trees, the two calls back to back
in an order that alternates from pair to pair, so that host drift falls on
both sides alike. A decode is timed as one ``cli.run`` call (the run is
built and decoded; no artifact is written).

Per workload and tree it writes the median and quartiles of the seconds a
decode took, and for the change the median of the per-pair ratios
parent / change (above 1 is faster), its quartiles, and the share of pairs
in which the change was faster. It checks that both trees decode the same
tokens on every seed and records the result. The record goes under the key
``"inprocess"`` of the ``--out`` JSON file (created if it does not exist,
other keys kept). It asserts nothing else.
"""

import argparse
import importlib
import importlib.util
import json
import os
import platform
import statistics
import sys
import tempfile
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = os.path.join(HERE, os.pardir, "perfbench", "workloads.py")
LABELS = ("parent", "change")
PAIRS = 40


def _drop_package():
    for name in [m for m in sys.modules
                 if m == "entropix" or m.startswith("entropix.")]:
        del sys.modules[name]


def load_tree(root: str):
    """(cli, config) modules of the checkout at ``root``; the package is
    dropped from ``sys.modules`` again, so the next checkout imports its
    own, while these module objects keep their own references."""
    _drop_package()
    sys.path.insert(0, os.path.join(os.path.abspath(root), "src"))
    try:
        cli = importlib.import_module("entropix.cli")
        config = importlib.import_module("entropix.config")
    finally:
        sys.path.pop(0)
        _drop_package()
    return cli, config


def load_workloads():
    spec = importlib.util.spec_from_file_location("workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


def summary(values) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    for label in LABELS:
        ap.add_argument(label, metavar=f"{label}=ROOT")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    trees = {}
    for label in LABELS:
        prefix, _, root = getattr(args, label).partition("=")
        if prefix != label or not root:
            ap.error(f"expected {label}=ROOT")
        trees[label] = load_tree(root)

    record = {
        "machine": {"nproc": len(os.sched_getaffinity(0)),
                    "python": platform.python_version(),
                    "numpy": np.__version__},
        "pairs": PAIRS, "seeds": [0, PAIRS - 1],
        "workloads": {}}
    with tempfile.TemporaryDirectory() as tmp:
        def configs(label, wl, seed, **overrides):
            path = os.path.join(tmp, "run.cfg")
            with open(path, "w") as f:
                f.write(wl.config_text(seed, tmp, **overrides))
            return trees[label][1].parse_config(path)

        for name, wl in load_workloads().items():
            for label in LABELS:  # untimed: the warm-up and one full decode
                trees[label][0].run(configs(label, wl, 0, **wl.warmup))
                trees[label][0].run(configs(label, wl, 0))
            seconds = {label: [] for label in LABELS}
            identical = True
            for seed in range(PAIRS):
                tokens = []
                order = LABELS if seed % 2 == 0 else LABELS[::-1]
                for label in order:
                    cfg = configs(label, wl, seed)
                    t0 = time.perf_counter()
                    res = trees[label][0].run(cfg)
                    seconds[label].append(time.perf_counter() - t0)
                    tokens.append(res.tokens)
                identical &= np.array_equal(*tokens)
            ratios = [p / c for p, c in zip(seconds["parent"],
                                            seconds["change"])]
            speedup = {**summary(ratios),
                       "share_faster": sum(r > 1.0 for r in ratios) / PAIRS}
            record["workloads"][name] = {
                "identical_tokens": bool(identical),
                "seconds": {k: summary(v) for k, v in seconds.items()},
                "speedup": speedup}
            print(f"{name}: change / parent speedup {speedup['median']:.3f}, "
                  f"faster in {speedup['share_faster']:.0%} of pairs; "
                  f"identical tokens {identical}", file=sys.stderr)

    doc = {}
    if os.path.exists(args.out):
        with open(args.out) as f:
            doc = json.load(f)
    doc["inprocess"] = record
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
