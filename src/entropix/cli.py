"""Command-line harness: run decoding modes against the synthetic oracle.

Subcommands:
  generate <config>                 decode and write tokens/entropy/report
  sweep <config> <param> <v1,...>   rerun while varying one parameter
  entropy-map <config>              write only the entropy map artifacts

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

from entropix import pgm
from entropix.config import (ConfigSyntaxError, ConfigValueError, RunConfig,
                             parse_config, validate_config)
from entropix.decode import next_token_generate
from entropix.mask import cosine_schedule, mask_generate
from entropix.oracle import Oracle, OracleConfig, profile_rect
from entropix.rng import RngStream
from entropix.scales import ScaleTempParams, scale_generate
from entropix.speculative import (BASELINE, ENTROPY_AWARE, SpecAcceptParams,
                                  SpecStats, jacobi_decode)
from entropix.temperature import TempParams, preset

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


def build_oracle(cfg: RunConfig) -> Oracle:
    shape = (cfg.height, cfg.width)
    if cfg.rect is not None:
        profile = profile_rect(shape, cfg.kappa_bg, cfg.kappa_fg, cfg.rect)
    else:
        profile = np.full(shape, cfg.kappa_bg)
    return Oracle(OracleConfig(vocab=cfg.vocab, shape=shape, profile=profile,
                               seed=cfg.seed,
                               context_sensitivity=cfg.context_sensitivity))


def build_temp_params(cfg: RunConfig) -> TempParams:
    if cfg.preset is not None:
        try:
            return preset(cfg.preset)
        except ValueError as exc:
            raise ConfigValueError(str(exc)) from None
    return TempParams(cfg.t0, cfg.alpha, cfg.theta)


def default_ladder(height: int, width: int):
    shapes = []
    h, w = 1, 1
    while True:
        shapes.append((min(h, height), min(w, width)))
        if shapes[-1] == (height, width):
            return tuple(shapes)
        h, w = h * 2, w * 2


def run(cfg: RunConfig) -> RunResult:
    oracle = build_oracle(cfg)
    tp = build_temp_params(cfg)
    rng = RngStream(cfg.seed)
    shape = (cfg.height, cfg.width)
    n = cfg.height * cfg.width
    start = time.perf_counter()

    if cfg.mode == "next-token":
        length = cfg.length if cfg.length is not None else n
        tokens, eps_list, temps = next_token_generate(
            oracle, length, n, tp, rng, cfg.top_k, cfg.top_p, cfg.cfg_scale)
        grid, emap = _to_grid(tokens, eps_list, shape)
        return RunResult(grid, emap, temps, length, length, None,
                         time.perf_counter() - start)

    if cfg.mode == "mask":
        schedule = cosine_schedule(n, cfg.steps)
        grid, emap, history, temps = mask_generate(
            oracle, shape, schedule, tp, rng, cfg.top_k, cfg.top_p,
            cfg.cfg_scale)
        return RunResult(grid, emap, temps, n, schedule.total_steps, None,
                         time.perf_counter() - start)

    if cfg.mode == "scale":
        ladder = cfg.ladder if cfg.ladder is not None \
            else default_ladder(cfg.height, cfg.width)
        sp = ScaleTempParams(cfg.beta, len(ladder), cfg.floor_temperature)
        grids, emaps, mean_eps, temps = scale_generate(
            oracle, ladder, tp, sp, rng, cfg.top_k, cfg.top_p, cfg.cfg_scale)
        return RunResult(grids[-1], emaps[-1], temps,
                         sum(g.size for g in grids), len(ladder), None,
                         time.perf_counter() - start, mean_eps)

    if cfg.mode in ("spec-baseline", "spec-entropy"):
        mode = ENTROPY_AWARE if cfg.mode == "spec-entropy" else BASELINE
        sp = SpecAcceptParams(cfg.accept_e, cfg.accept_lambda, mode,
                              cfg.literal_noise_decay)
        length = cfg.length if cfg.length is not None else n
        tokens, stats, eps_list, temps = jacobi_decode(
            oracle, length, cfg.window, tp, sp, rng, cfg.top_k, cfg.top_p,
            cfg.cfg_scale)
        grid, emap = _to_grid(tokens, eps_list, shape)
        return RunResult(grid, emap, temps, stats.tokens_emitted,
                         stats.model_invocations, stats,
                         time.perf_counter() - start)

    raise ConfigValueError(f"unknown mode {cfg.mode!r}")


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


def write_csv(path, header, rows) -> None:
    with open(path, "w", newline="\n") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(_fmt(row[k]) for k in header) + "\n")


def write_artifacts(cfg: RunConfig, res: RunResult, out_dir: str,
                    maps_only: bool = False) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "entropy.csv"), "w", newline="\n") as f:
        for row in res.entropy_map:
            f.write(",".join(f"{v:.17g}" for v in row) + "\n")
    pixels = pgm.entropy_to_pixels(res.entropy_map, cfg.vocab)
    pgm.write_pgm(os.path.join(out_dir, "entropy.pgm"), pixels)
    if maps_only:
        return
    with open(os.path.join(out_dir, "tokens.csv"), "w", newline="\n") as f:
        for row in res.tokens:
            f.write(",".join(str(int(v)) for v in row) + "\n")
    row = report_row(cfg, res)
    write_csv(os.path.join(out_dir, "report.csv"), list(row), [row])
    if res.scale_mean_entropy is not None:
        with open(os.path.join(out_dir, "scales.csv"), "w", newline="\n") as f:
            f.write("scale,mean_entropy\n")
            for s, m in enumerate(res.scale_mean_entropy, start=1):
                f.write(f"{s},{m:.12g}\n")


def cmd_generate(config_path: str) -> int:
    cfg = parse_config(config_path)
    res = run(cfg)
    write_artifacts(cfg, res, cfg.out_dir)
    print(f"mode={cfg.mode} seed={cfg.seed} tokens={res.tokens_emitted} "
          f"invocations={res.model_invocations} wall_time={res.wall_time:.3f}s")
    return 0


def cmd_entropy_map(config_path: str) -> int:
    cfg = parse_config(config_path)
    res = run(cfg)
    write_artifacts(cfg, res, cfg.out_dir, maps_only=True)
    print(f"entropy map written to {cfg.out_dir} "
          f"(mean={float(res.entropy_map.mean()):.4f} nats, "
          f"wall_time={res.wall_time:.3f}s)")
    return 0


SWEEP_PARAMS = {
    "T0": ("t0", float),
    "alpha": ("alpha", float),
    "theta": ("theta", float),
    "K": ("top_k", int),
    "cfg_scale": ("cfg_scale", float),
    "e": ("accept_e", float),
    "lambda": ("accept_lambda", float),
    "beta": ("beta", float),
}


def cmd_sweep(config_path: str, param: str, values_text: str) -> int:
    cfg = parse_config(config_path)
    if param not in SWEEP_PARAMS:
        raise ConfigValueError(
            f"unknown sweep parameter {param!r}; valid: {', '.join(SWEEP_PARAMS)}")
    raw = [v for v in values_text.split(",") if v.strip()]
    if not raw:
        raise ConfigValueError("sweep needs at least one value")
    attr, cast = SWEEP_PARAMS[param]
    try:
        values = [cast(float(v)) if cast is int else cast(v) for v in raw]
    except ValueError:
        raise ConfigValueError(f"bad sweep values: {values_text!r}") from None

    header = ["param", "value", "entropy_mean", "entropy_var",
              "mean_temperature", "model_invocations", "acceptance_rate"]
    rows = []
    for value in values:
        c = copy.deepcopy(cfg)
        setattr(c, attr, value)
        validate_config(c)
        res = run(c)
        rep = report_row(c, res)
        rows.append({
            "param": param,
            "value": value,
            "entropy_mean": rep["entropy_mean"],
            "entropy_var": rep["entropy_var"],
            "mean_temperature": rep["mean_temperature"],
            "model_invocations": rep["model_invocations"],
            "acceptance_rate": rep["acceptance_rate"],
        })
    os.makedirs(cfg.out_dir, exist_ok=True)
    write_csv(os.path.join(cfg.out_dir, "sweep.csv"), header, rows)
    print(",".join(header))
    for row in rows:
        print(",".join(_fmt(row[k]) for k in header))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="entropix",
        description="entropy-informed decoding toolkit (synthetic oracle harness)")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("generate", help="run one decode and write artifacts")
    p.add_argument("config")
    p = sub.add_parser("sweep", help="rerun a config over parameter values")
    p.add_argument("config")
    p.add_argument("param")
    p.add_argument("values", help="comma-separated list, e.g. 1,2,3")
    p = sub.add_parser("entropy-map", help="write the entropy map only")
    p.add_argument("config")
    args = parser.parse_args(argv)

    try:
        if args.command == "generate":
            return cmd_generate(args.config)
        if args.command == "sweep":
            return cmd_sweep(args.config, args.param, args.values)
        if args.command == "entropy-map":
            return cmd_entropy_map(args.config)
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
