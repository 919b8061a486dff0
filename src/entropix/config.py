"""Run configuration: flat ``key = value`` text files.

One assignment per line, ``#`` starts a comment, no sections. Unknown keys
are rejected with the offending line number. Syntax and type problems raise
ConfigSyntaxError (CLI exit 2); semantically invalid parameter combinations
raise ConfigValueError (CLI exit 3).
"""

import math
import os
from dataclasses import dataclass, field, fields
from typing import Optional, Tuple

MODES = ("next-token", "mask", "scale", "spec-baseline", "spec-entropy")


class ConfigSyntaxError(Exception):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ConfigValueError(Exception):
    pass


@dataclass
class RunConfig:
    mode: str = "next-token"
    seed: int = 0
    out_dir: str = "out"
    vocab: int = 64
    height: int = 16
    width: int = 16
    kappa_bg: float = 0.0
    kappa_fg: float = 0.0
    rect: Optional[Tuple[int, int, int, int]] = None
    context_sensitivity: float = 0.0
    preset: Optional[str] = None
    t0: float = 2.5
    alpha: float = 3.0
    theta: float = 0.6
    top_k: Optional[int] = None
    top_p: Optional[float] = None
    cfg_scale: float = 1.0
    steps: int = 16
    window: int = 16
    beta: float = 0.3
    ladder: Optional[Tuple[Tuple[int, int], ...]] = None
    floor_temperature: float = 0.05
    accept_e: float = 8.0
    accept_lambda: float = 16.0
    literal_noise_decay: bool = False
    length: Optional[int] = None


_INT_KEYS = {"seed", "vocab", "height", "width", "top_k", "steps", "window", "length"}
_FLOAT_KEYS = {"kappa_bg", "kappa_fg", "context_sensitivity", "t0", "alpha",
               "theta", "top_p", "cfg_scale", "beta", "floor_temperature",
               "accept_e", "accept_lambda"}
_STR_KEYS = {"mode", "out_dir", "preset"}
_BOOL_KEYS = {"literal_noise_decay"}


def _parse_rect(text: str, lineno: int):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 4:
        raise ConfigSyntaxError(lineno, "rect needs four integers: top,left,height,width")
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise ConfigSyntaxError(lineno, "rect needs four integers") from None


def _parse_ladder(text: str, lineno: int):
    shapes = []
    for part in text.split(","):
        part = part.strip().lower()
        try:
            h, w = part.split("x")
            shapes.append((int(h), int(w)))
        except ValueError:
            raise ConfigSyntaxError(lineno, f"bad ladder entry {part!r}; expected HxW") from None
    return tuple(shapes)


def parse_config(path: str) -> RunConfig:
    cfg = RunConfig()
    known = {f.name for f in fields(RunConfig)}
    try:
        with open(path) as f:
            lines = f.readlines()
    except OSError as exc:
        raise ConfigSyntaxError(0, f"cannot read config file: {exc}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigSyntaxError(lineno, f"expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in known:
            raise ConfigSyntaxError(lineno, f"unknown key {key!r}")
        try:
            if key == "rect":
                setattr(cfg, key, _parse_rect(value, lineno))
            elif key == "ladder":
                setattr(cfg, key, _parse_ladder(value, lineno))
            elif key in _INT_KEYS:
                setattr(cfg, key, int(value))
            elif key in _FLOAT_KEYS:
                setattr(cfg, key, float(value))
            elif key in _BOOL_KEYS:
                if value.lower() not in ("true", "false", "0", "1"):
                    raise ValueError(value)
                setattr(cfg, key, value.lower() in ("true", "1"))
            elif key in _STR_KEYS:
                setattr(cfg, key, value)
        except ConfigSyntaxError:
            raise
        except ValueError:
            raise ConfigSyntaxError(lineno, f"bad value {value!r} for key {key!r}") from None

    env_seed = os.environ.get("ENTROPIX_SEED")
    if env_seed is not None:
        try:
            cfg.seed = int(env_seed)
        except ValueError:
            raise ConfigValueError(f"ENTROPIX_SEED is not an integer: {env_seed!r}") from None
    validate_config(cfg)
    return cfg


def validate_config(cfg: RunConfig) -> None:
    if cfg.mode not in MODES:
        raise ConfigValueError(f"unknown mode {cfg.mode!r}; valid modes: {', '.join(MODES)}")
    # the range checks below are comparisons, which NaN passes
    for name in sorted(_FLOAT_KEYS):
        v = getattr(cfg, name)
        if v is not None and not math.isfinite(v):
            raise ConfigValueError(f"{name} must be finite")
    if cfg.vocab < 2 or cfg.height < 1 or cfg.width < 1:
        raise ConfigValueError("vocab must be >= 2 and grid dimensions positive")
    if not 0.0 <= cfg.context_sensitivity <= 1.0:
        raise ConfigValueError("context_sensitivity must be in [0, 1]")
    for name in ("kappa_bg", "kappa_fg"):
        v = getattr(cfg, name)
        if not 0.0 <= v <= 1.0:
            raise ConfigValueError(f"{name} must be in [0, 1]")
    if cfg.top_k is not None and cfg.top_k < 1:
        raise ConfigValueError("top_k must be >= 1")
    if cfg.top_p is not None and not 0.0 < cfg.top_p <= 1.0:
        raise ConfigValueError("top_p must be in (0, 1]")
    if cfg.t0 <= 0 or cfg.alpha <= 0 or cfg.theta <= 0:
        raise ConfigValueError("t0, alpha and theta must be positive")
    if cfg.steps < 1 or cfg.window < 1:
        raise ConfigValueError("steps and window must be >= 1")
    if cfg.accept_e <= 0 or cfg.accept_lambda <= 0:
        raise ConfigValueError("accept_e and accept_lambda must be positive")
    if not 0.0 <= cfg.beta < 1.0:
        raise ConfigValueError("beta must be in [0, 1)")
    if cfg.floor_temperature <= 0:
        raise ConfigValueError("floor_temperature must be positive")
    if cfg.length is not None and cfg.length < 1:
        raise ConfigValueError("length must be positive")
    if cfg.rect is not None:
        top, left, rh, rw = cfg.rect
        if top < 0 or left < 0 or rh < 0 or rw < 0 \
                or top + rh > cfg.height or left + rw > cfg.width:
            raise ConfigValueError("rect out of bounds")
    if cfg.cfg_scale < 1.0:
        raise ConfigValueError("cfg_scale must be >= 1")
