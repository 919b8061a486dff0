"""Command-line harness: run decoding modes against the synthetic oracle.

Subcommands:
  generate <config>                 decode and write tokens/entropy/report
  sweep <config> <param> <v1,...>   rerun while varying one parameter
  entropy-map <config>              generate, writing the entropy maps only

Exit codes: 0 success, 2 config parse failure, 3 invalid parameters
(including an out_dir that cannot be written).
"""

import argparse
import copy
import os
import sys
import time
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from entropix import pgm, textio
from entropix.config import (_INT_KEYS, ConfigSyntaxError, ConfigValueError,
                             RunConfig, build_run, parse_config,
                             read_config)
from entropix.decode import next_token_generate
from entropix.mask import mask_generate
from entropix.scales import scale_generate
from entropix.speculative import SpecStats, jacobi_decode

HIST_BINS = 8


@dataclass
class RunResult:
    tokens: np.ndarray  # 2-D grid
    entropy_map: np.ndarray  # same shape
    temps: List[float]
    tokens_emitted: int
    model_invocations: int
    stats: Optional[SpecStats]
    wall_time: float
    scale_mean_entropy: Optional[List[float]] = None  # scale mode only


def run(cfg: RunConfig) -> RunResult:
    """Decode one config. ``build_run`` checks it first, so an invalid or
    oversized config raises ConfigValueError before anything is
    allocated."""
    r = build_run(cfg)
    shape = (cfg.height, cfg.width)
    options = (cfg.top_k, cfg.top_p, cfg.cfg_scale)
    stats = mean_eps = None
    start = time.perf_counter()

    if cfg.mode == "next-token":
        tokens, eps_list, temps = next_token_generate(r.oracle, r.length,
                                                      r.tp, r.rng, *options)
        grid, emap = _to_grid(tokens, eps_list, shape)
        emitted = invocations = r.length
    elif cfg.mode == "mask":
        grid, emap, _, temps = mask_generate(r.oracle, shape, r.schedule,
                                             r.tp, r.rng, *options)
        emitted, invocations = grid.size, r.schedule.total_steps
    elif cfg.mode == "scale":
        grids, emaps, mean_eps, temps = scale_generate(
            r.oracle, r.ladder, r.tp, r.scale, r.rng, *options)
        grid, emap = grids[-1], emaps[-1]
        emitted, invocations = sum(g.size for g in grids), len(r.ladder)
    else:  # the gate admits only the five modes
        tokens, stats, eps_list, temps = jacobi_decode(
            r.oracle, r.length, cfg.window, r.tp, r.accept, r.rng, *options)
        grid, emap = _to_grid(tokens, eps_list, shape)
        emitted, invocations = stats.tokens_emitted, stats.model_invocations
    return RunResult(grid, emap, temps, emitted, invocations, stats,
                     time.perf_counter() - start, mean_eps)


def _to_grid(tokens, eps_list, shape):
    n = shape[0] * shape[1]
    if len(tokens) == n:
        return (np.asarray(tokens).reshape(shape),
                np.asarray(eps_list).reshape(shape))
    return (np.asarray(tokens).reshape(1, -1),
            np.asarray(eps_list).reshape(1, -1))


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.12g}"


def report_row(cfg: RunConfig, res: RunResult) -> dict:
    eps = res.entropy_map.reshape(-1)
    hist, _ = np.histogram(eps, bins=HIST_BINS, range=(0.0, np.log(cfg.vocab)))
    row = {
        "mode": cfg.mode,
        "seed": cfg.seed,
        "vocab": cfg.vocab,
        "height": cfg.height,
        "width": cfg.width,
        "tokens_emitted": res.tokens_emitted,
        "model_invocations": res.model_invocations,
        "accept_tests": res.stats.accept_tests if res.stats else 0,
        "accepted": res.stats.accepted if res.stats else 0,
        "acceptance_rate": res.stats.mean_acceptance_rate if res.stats else 0.0,
        "entropy_mean": float(eps.mean()),
        "entropy_var": float(eps.var()),
        "mean_temperature": float(np.mean(res.temps)) if res.temps else 0.0,
    }
    for b in range(HIST_BINS):
        row[f"hist_{b}"] = int(hist[b])
    return row


def write_csv(path, header, rows) -> str:
    """Write the header's columns of each row (a dict) and return the
    text."""
    lines = [header] + [[row[k] for k in header] for row in rows]
    text = "".join(",".join(map(_fmt, line)) + "\n" for line in lines)
    with open(path, "w", newline="\n") as f:
        f.write(text)
    return text


def write_artifacts(cfg: RunConfig, res: RunResult, out_dir: str,
                    maps_only: bool = False) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "entropy.csv"), "wb") as f:
        textio.write_rows(f, res.entropy_map)
    pixels = pgm.entropy_to_pixels(res.entropy_map, cfg.vocab)
    pgm.write_pgm(os.path.join(out_dir, "entropy.pgm"), pixels)
    if maps_only:
        return
    with open(os.path.join(out_dir, "tokens.csv"), "wb") as f:
        textio.write_rows(f, res.tokens)
    row = report_row(cfg, res)
    write_csv(os.path.join(out_dir, "report.csv"), list(row), [row])
    if res.scale_mean_entropy is not None:
        write_csv(os.path.join(out_dir, "scales.csv"),
                  ["scale", "mean_entropy"],
                  [{"scale": s, "mean_entropy": m}
                   for s, m in enumerate(res.scale_mean_entropy, start=1)])


def cmd_generate(config_path: str, maps_only: bool = False) -> int:
    cfg = read_config(config_path)
    res = run(cfg)  # the run's one build, which refuses a bad value
    write_artifacts(cfg, res, cfg.out_dir, maps_only)
    if maps_only:
        print(f"entropy map written to {cfg.out_dir} "
              f"(mean={float(res.entropy_map.mean()):.4f} nats, "
              f"wall_time={res.wall_time:.3f}s)")
    else:
        print(f"mode={cfg.mode} seed={cfg.seed} tokens={res.tokens_emitted} "
              f"invocations={res.model_invocations} "
              f"wall_time={res.wall_time:.3f}s")
    return 0


# sweep name -> config field; a field in config._INT_KEYS takes integers
SWEEP_PARAMS = {"T0": "t0", "alpha": "alpha", "theta": "theta", "K": "top_k",
                "cfg_scale": "cfg_scale", "e": "accept_e",
                "lambda": "accept_lambda", "beta": "beta"}


def cmd_sweep(config_path: str, param: str, values_text: str) -> int:
    cfg = parse_config(config_path)
    if param not in SWEEP_PARAMS:
        raise ConfigValueError(
            f"unknown sweep parameter {param!r}; valid: {', '.join(SWEEP_PARAMS)}")
    raw = [v for v in values_text.split(",") if v.strip()]
    if not raw:
        raise ConfigValueError("sweep needs at least one value")
    attr = SWEEP_PARAMS[param]
    bad = ConfigValueError(f"bad sweep values: {values_text!r}")
    try:
        values = [float(v) for v in raw]
    except ValueError:
        raise bad from None
    if attr in _INT_KEYS:
        # an integer parameter takes integral values only, written as
        # floats or not ("8.0"); is_integer is False for inf and NaN
        if not all(v.is_integer() for v in values):
            raise bad
        values = [int(v) for v in values]

    header = ["param", "value", "entropy_mean", "entropy_var",
              "mean_temperature", "model_invocations", "acceptance_rate"]
    rows = []
    for value in values:
        c = copy.deepcopy(cfg)
        setattr(c, attr, value)
        # the report's other columns are read off it by header name
        rows.append(dict(report_row(c, run(c)), param=param, value=value))
    os.makedirs(cfg.out_dir, exist_ok=True)
    print(write_csv(os.path.join(cfg.out_dir, "sweep.csv"), header, rows),
          end="")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="entropix",
        description="entropy-informed decoding toolkit (synthetic oracle harness)")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("generate", help="run one decode and write artifacts")
    p.add_argument("config")
    sweep = sub.add_parser("sweep",
                           help="rerun a config over parameter values")
    sweep.add_argument("config")
    sweep.add_argument("param")
    # REMAINDER takes a list that reads as an option ("-1e-3", "-1,2") as
    # the value it is; exactly one list is allowed
    sweep.add_argument("values", nargs=argparse.REMAINDER,
                       help="comma-separated list, e.g. 1,2,3")
    p = sub.add_parser("entropy-map", help="write the entropy map only")
    p.add_argument("config")
    args = parser.parse_args(argv)
    if args.command == "sweep" and len(args.values) != 1:
        sweep.error("expected one comma-separated list of values")

    try:
        if args.command == "sweep":
            return cmd_sweep(args.config, args.param, args.values[0])
        return cmd_generate(args.config, args.command == "entropy-map")
    except ConfigSyntaxError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ConfigValueError, ValueError) as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        # the config file was read already, so this is out_dir
        print(f"invalid parameters: cannot write artifacts: {exc}",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
