"""One workload in one process: set up, run timed operations, check them.

Run by ``run.py``, never by hand. With ``--probe`` it stops once set-up is
done and reports only when that was. Otherwise it runs operations until
``--seconds`` have passed. Operation i is an in-process ``entropix
generate`` of the workload's config with seed ``--seed`` + i, through
``cli.main``. With ``--trace 1`` even operations run with spans installed
and odd ones without, so the two can be compared.

The last line of standard output is one JSON object.
"""

import argparse
import contextlib
import json
import os
import resource
import shutil
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from entropix import backend, cli  # noqa: E402

import checks  # noqa: E402
from tracer import Tracer, targets  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC_BASELINE_SEEDS = 3  # baseline-rule decodes per spec-context run


class Operations:
    def __init__(self, wl, work_dir, stdout):
        self.wl = wl
        self.work_dir = work_dir
        self.stdout = stdout  # where cli.main prints its summary line

    def config(self, seed, name, **overrides):
        """Write a config file; returns its path and its output directory."""
        out = os.path.join(self.work_dir, name)
        with open(out + ".cfg", "w") as f:
            f.write(self.wl.config_text(seed, out, **overrides))
        return out + ".cfg", out

    def generate(self, path):
        """One operation; returns cli.main's exit code."""
        with contextlib.redirect_stdout(self.stdout):
            return cli.main(["generate", path])


@contextlib.contextmanager
def capture(module, attr, sink):
    """Record the return values of ``module.attr`` while the block runs."""
    fn = getattr(module, attr)

    def recorded(*args, **kwargs):
        out = fn(*args, **kwargs)
        sink.append(out)
        return out

    setattr(module, attr, recorded)
    try:
        yield
    finally:
        setattr(module, attr, fn)


_CAL_X = np.linspace(0.0, 1.0, 64)


def calibrate() -> float:
    """Seconds one fixed piece of work takes now: small numpy calls and
    interpreted arithmetic, the mix the decoders run, with no entropix
    code in it. Each operation runs between two calibrations, so that its
    time can be scaled by the machine's speed at that moment: on a shared
    host that speed drifts by a fifth over minutes."""
    t0 = time.perf_counter()
    s = 0.0
    for i in range(2000):
        a = np.exp(_CAL_X - _CAL_X.max())
        a /= a.sum()
        s += float(a[i % 64])
        for j in range(16):
            s += j * 0.5
    return time.perf_counter() - t0


def timed_operations(ops, seed, seconds, tracer):
    """Run operations for ``seconds``; returns per-operation records, the
    failures the per-operation checks found, and the peak resident size in
    KiB after the second operation (the number of operations varies with
    the machine's speed, and heap growth with it)."""
    records, bad = [], []
    rss_kb = None
    start = time.perf_counter()
    i = 0
    while i < 2 or time.perf_counter() - start < seconds:
        path, out = ops.config(seed + i, "op0" if i == 0 else "op")
        traced = tracer is not None and i % 2 == 0
        cal = calibrate()
        if traced:
            tracer.install(i)
        t0 = time.perf_counter()
        try:
            rc = ops.generate(path)
        except Exception as exc:  # a failed operation, counted as such
            rc = repr(exc)
        wall = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
        rec = {"seed": seed + i, "wall_s": wall, "traced": traced,
               "failed": rc != 0, "calib_s": (cal + calibrate()) / 2}
        if rc != 0:
            bad.append(f"operation {i} failed: {rc}")
        else:
            art = checks.read_artifacts(out)
            rec.update(tokens=art["tokens_emitted"],
                       invocations=art["model_invocations"],
                       accept_tests=art["accept_tests"],
                       accepted=art["accepted"])
            bad += [f"operation {i}: {m}"
                    for m in checks.check_operation(ops.wl, art)]
        records.append(rec)
        if i == 1:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        i += 1
    return records, bad, rss_kb


def check_outputs(ops, seed, records) -> dict:
    """Rerun operation 0 and check it against the reference and the
    method's properties; returns check name -> failure messages."""
    wl = ops.wl
    first = checks.read_artifacts(os.path.join(ops.work_dir, "op0"))
    runs, generated = [], []
    path, out = ops.config(seed, "rerun")
    with capture(cli, "run", runs), \
            capture(cli, "mask_generate", generated), \
            capture(cli, "scale_generate", generated):
        rc = ops.generate(path)
    if rc != 0:
        return {"rerun": [f"rerun of operation 0 failed: {rc}"]}
    art = checks.read_artifacts(out)
    res = runs[0]
    found = {"rerun": checks.check_same_files(first, art)}
    if wl.mode == "next-token":
        found["reference"] = checks.check_next_token(wl, seed, art, res)
    elif wl.mode == "mask":
        _, _, history, temps = generated[0]
        found["reference"] = checks.check_mask(wl, seed, art, history, temps)
    elif wl.mode == "scale":
        found["reference"] = checks.check_scale(wl, seed, art, *generated[0])
    else:
        found["reference"] = checks.check_spec(wl, seed, art, res)
        found.update(check_spec_rules(ops, seed, records))
    return found


def check_spec_rules(ops, seed, records) -> dict:
    """On the run's first seeds: the entropy-aware rule makes fewer oracle
    invocations than the baseline rule, whose tokens follow the law."""
    baseline, entropy_aware = [], 0
    for i in range(min(SPEC_BASELINE_SEEDS, len(records))):
        path, out = ops.config(seed + i, "baseline", mode="spec-baseline")
        rc = ops.generate(path)
        if rc != 0:
            return {"baseline": [f"baseline decode of seed {seed + i} "
                                 f"failed: {rc}"]}
        baseline.append((seed + i, checks.read_artifacts(out)))
        entropy_aware += records[i].get("invocations", 0)
    base = sum(art["model_invocations"] for _, art in baseline)
    fewer = [] if entropy_aware < base else [
        f"entropy-aware rule made {entropy_aware} invocations, baseline "
        f"{base}"]
    return {"fewer_invocations": fewer,
            "baseline_law": checks.check_baseline_law(ops.wl, baseline)}


def trace_metrics(tracer, records):
    """Per-layer metrics, each per traced operation."""
    traced = [r for r in records if r["traced"] and not r["failed"]]
    plain = [r for r in records if not r["traced"] and not r["failed"]]
    if not traced or not plain:
        raise SystemExit("no traced or no untraced operation succeeded")
    n = len(traced)
    tot = tracer.totals()
    m = {}
    for name, (calls, work, self_s) in tot.items():
        m[f"{name}.calls"] = calls / n
        m[f"{name}.self_s"] = self_s / n
        if name in tracer.work_unit:
            m[f"{name}.{tracer.work_unit[name]}"] = work / n
    tokens = sum(r["tokens"] for r in traced)
    tests = sum(r["accept_tests"] for r in traced)
    m["mask.rows_per_token"] = (
        tot["oracle.logits_rows"][1] / tokens
        if tot["mask.mask_generate"][0] else 0.0)
    m["speculative.accept_rate"] = (
        sum(r["accepted"] for r in traced) / tests if tests else 0.0)
    wall = sum(r["wall_s"] for r in traced)
    m["trace.coverage"] = sum(s for _, _, s in tot.values()) / wall
    m["trace.overhead"] = (float(np.median([r["wall_s"] for r in traced]))
                           / float(np.median([r["wall_s"] for r in plain]))
                           - 1.0)
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--work-dir", required=True)
    args = ap.parse_args(argv)

    os.makedirs(args.work_dir, exist_ok=True)
    with open(os.devnull, "w") as devnull:
        result = run(args, Operations(WORKLOADS[args.workload], args.work_dir,
                                      devnull))
    shutil.rmtree(args.work_dir, ignore_errors=True)
    if result is None:
        return 1
    print(json.dumps(result))
    return 0


def run(args, ops):
    path, _ = ops.config(args.seed, "warmup", **ops.wl.warmup)
    if ops.generate(path) != 0:
        print("warm-up operation failed", file=sys.stderr)
        return None
    result = {"ready": time.monotonic()}
    if not args.probe:
        tracer = Tracer(targets()) if args.trace else None
        records, bad, rss_kb = timed_operations(ops, args.seed, args.seconds,
                                                tracer)
        found = {"operations": bad}
        if any(r["failed"] for r in records[:1]):
            found["rerun"] = ["operation 0 failed, so it was not rerun"]
        else:
            found.update(check_outputs(ops, args.seed, records))
        result.update(records=records, rss_kb=rss_kb, checks=found,
                      backend=backend.BACKEND,
                      numpy=np.__version__)
        if tracer is not None:
            result["layers"] = trace_metrics(tracer, records)
            tracer.write(os.path.join(
                os.path.dirname(args.work_dir),
                f"trace-{args.workload}.csv"))
    return result


if __name__ == "__main__":
    sys.exit(main())
