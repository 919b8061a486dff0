"""Record perfbench results for one or more source checkouts in a BENCH file.

    python3 benchmarks/bench_e2e.py --out BENCH_7.json \
        parent=../parent-export change=.

Each ``LABEL=ROOT`` names a checkout; ``perfbench/run.py`` runs from inside
it, so every record measures that checkout's own program and benchmark. For
every workload BENCHMARK.json lists, each seed runs once per checkout with
``--trace 0``, in an order that alternates from seed to seed so that host
drift falls on both sides alike. Every run lasts BENCHMARK.json's
``run_seconds``. At least ten seeds are required, so that a record holds
the ten pairs of runs a claimed gain is judged on. The record keeps every
run (its seed, ``correct``, failed operations and end-to-end metrics) and
each metric's median and quartiles. One ``--trace 1`` run per workload and checkout
records the per-layer metrics named in ``LAYERS``. The machine line
perfbench prints (nproc, Python, numpy, kernel backend) is kept with each
record. Nothing in the package or its tests imports this script.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

LAYERS = ("oracle.logits_rows.self_s", "kernels.raw_logits_rows.self_s",
          "kernels.raw_logits.self_s", "temperature.pipeline_probs.self_s",
          "oracle.digest_of.self_s", "oracle.running_digest.self_s",
          "dist.sample_categorical.self_s", "dist.sample_rows.self_s",
          "cli.run.self_s")
MIN_SEEDS = 10


def perfbench(root: str, workload: str, seed: int, seconds: int,
              trace: int) -> dict:
    """One perfbench run in ``root``: its final JSON object plus the
    machine it reported."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{root}: perfbench {workload} seed {seed} exited "
                         f"with {proc.returncode}")
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("machine: "):
            result["machine"] = json.loads(line[len("machine: "):])
    return result


def summary(values) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
        else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def parse_seeds(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("checkouts", nargs="+", metavar="LABEL=ROOT")
    ap.add_argument("--out", required=True)
    ap.add_argument("--seeds", default="0-9",
                    help="a range of at least ten seeds, such as 0-9")
    args = ap.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    if len(seeds) < MIN_SEEDS:
        ap.error(f"--seeds must span at least {MIN_SEEDS} seeds")

    checkouts = []
    for item in args.checkouts:
        label, sep, root = item.partition("=")
        if not sep or not os.path.isfile(os.path.join(root, "perfbench",
                                                      "run.py")):
            raise SystemExit(f"{item!r}: expected LABEL=ROOT of a checkout")
        checkouts.append((label, root))
    with open(os.path.join(checkouts[0][1], "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]

    records = {label: {"label": label, "seconds": seconds, "seeds": seeds,
                       "workloads": {}} for label, _ in checkouts}
    for w in workloads:
        runs = {label: [] for label, _ in checkouts}
        for i, seed in enumerate(seeds):
            order = checkouts if i % 2 == 0 else checkouts[::-1]
            for label, root in order:
                r = perfbench(root, w, seed, seconds, 0)
                records[label]["machine"] = r["machine"]
                runs[label].append({
                    "seed": seed, "correct": r["correct"],
                    "attempted": r["attempted"], "failed": r["failed"],
                    "metrics": {k: m["value"]
                                for k, m in r["metrics"].items()}})
                print(f"{w} seed {seed} {label}: "
                      f"{runs[label][-1]['metrics']}", file=sys.stderr)
        for label, root in checkouts:
            metrics = runs[label][0]["metrics"]
            traced = perfbench(root, w, seeds[0], seconds, 1)
            records[label]["workloads"][w] = {
                "runs": runs[label],
                "summary": {k: summary([r["metrics"][k] for r in runs[label]])
                            for k in metrics},
                "trace": {"seed": seeds[0], "correct": traced["correct"],
                          "failed": traced["failed"],
                          **{k: traced["metrics"][k]["value"]
                             for k in LAYERS}}}

    with open(args.out, "w") as f:
        json.dump({"benchmark": "perfbench/run.py",
                   "records": list(records.values())}, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
