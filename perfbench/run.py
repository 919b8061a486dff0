"""Benchmark of the four entropix decoders, end to end and per layer.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of a source checkout; nothing needs building. Each
workload runs in its own single-threaded worker process (``worker.py``).
With ``--trace 0`` the run measures the end-to-end metrics, with
``--trace 1`` the per-layer ones; BENCHMARK.json names both sets and their
units. Every run checks the program's outputs. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_PROBES = 6  # set-up-only processes per run, besides the measuring one
# The calibration loop's time on this benchmark's reference machine (2-core
# KVM guest, Python 3.11.7, numpy 2.4.6), about its median there. Operation
# times are scaled by calibration time / CALIBRATION_S, so tokens_per_s
# reads as on that machine at its usual speed.
CALIBRATION_S = 0.022
DEADLINE_S = 170.0  # every worker must have ended by then
MB = 1024.0  # ru_maxrss is in KiB on Linux


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("ENTROPIX_SEED", None)  # it would override every config's seed
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def start_worker(args, probe: bool, deadline: float):
    """Run one worker; returns (its result, seconds from start to ready)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(OUT, f"{args.workload}-{os.getpid()}")]
    if probe:
        cmd.append("--probe")
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(),
                              stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{args.workload}: worker did not finish in time")
    if proc.returncode != 0 or not proc.stdout.strip():
        raise SystemExit(f"{args.workload}: worker exited with "
                         f"{proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, result["ready"] - started


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except OSError as exc:
        raise SystemExit(f"cannot read BENCHMARK.json: {exc}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise SystemExit(f"unknown workload {args.workload!r}")
    if not os.path.isdir(os.path.join(ROOT, "src", "entropix")):
        raise SystemExit("src/entropix not found: run from a source checkout")
    os.makedirs(OUT, exist_ok=True)

    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            setups.append(start_worker(args, True, deadline)[1])
    result, setup = start_worker(args, False, deadline)
    setups.append(setup)

    records = result["records"]
    done = [r for r in records if not r["failed"]]
    if not done:
        raise SystemExit(f"{args.workload}: every operation failed")
    if args.trace:
        wanted = spec["per_layer"]
        values = result["layers"]
    else:
        wanted = spec["end_to_end"]
        values = {
            "setup_s": statistics.median(setups),
            "tokens_per_s": statistics.median(
                r["tokens"] / r["wall_s"] * r["calib_s"] / CALIBRATION_S
                for r in done),
            "invocations_per_token": sum(r["invocations"] for r in done)
            / sum(r["tokens"] for r in done),
            "peak_rss_mb": result["rss_kb"] / MB,
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}

    failures = {k: v for k, v in result["checks"].items() if v}
    machine = {"nproc": len(os.sched_getaffinity(0)),
               "python": platform.python_version(),
               "numpy": result["numpy"], "backend": result["backend"]}
    print(f"machine: {json.dumps(machine)}")
    print(f"workload {args.workload}, seed {args.seed}: {len(records)} "
          f"operations attempted, {len(records) - len(done)} failed"
          + (f", {len(setups)} set-ups" if not args.trace else ""))
    wall = statistics.median(r["tokens"] / r["wall_s"] for r in done)
    cal = statistics.median(r["calib_s"] for r in done)
    print(f"  unscaled wall-clock tokens/s {wall:.6g}; calibration median "
          f"{cal * 1e3:.4g} ms (reference {CALIBRATION_S * 1e3:g})")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    for name, msgs in failures.items():
        for msg in msgs[:5]:
            print(f"check {name} FAILED: {msg}", file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": len(records),
                      "failed": len(records) - len(done),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
