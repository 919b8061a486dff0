"""Run configuration: flat ``key = value`` text files, parsed, checked and
built into what a run decodes with.

One assignment per line, ``#`` starts a comment, no sections. Unknown keys
are rejected with the offending line number, and each value is read as the
kind its ``RunConfig`` field is annotated with. Syntax and type problems
raise ConfigSyntaxError (CLI exit 2); invalid parameter values raise
ConfigValueError (CLI exit 3). ``build_run`` is the one gate every run
passes: ``cli.run`` calls it, once per run, so ``generate`` reads its
config with ``read_config`` and builds the run there; ``parse_config``
reads and gates a config, as ``sweep`` does its base. It first checks
what no object of the run checks (the mode, finiteness, positivity and,
in ``_check_sizes``, every size), all before anything is allocated, then
builds the oracle, the random stream and every parameter object, each of
which states its own ranges once.
"""

import math
import os
from dataclasses import dataclass, fields
from typing import NamedTuple, Optional, Tuple, get_args

from entropix._kernels_py import _BLOCK_ELEMS
from entropix.dist import _check_top_k, _check_top_p
from entropix.mask import StepSchedule, cosine_schedule
from entropix.oracle import Oracle, OracleConfig, profile_rect
from entropix.rng import RngStream
from entropix.scales import ScaleTempParams
from entropix.speculative import BASELINE, ENTROPY_AWARE, SpecAcceptParams
from entropix.temperature import TempParams, preset

MODES = ("next-token", "mask", "scale", "spec-baseline", "spec-entropy")

# Size limits, checked before anything is allocated. They admit an
# LLM-sized vocabulary, grids and ladder entries of up to 2^20 cells, and
# 2^24 logits per query kind of a logical oracle query (under guidance a
# query scores the conditional and unconditional rows of its positions as
# one batch, twice that in all). A query that covers many positions on one
# digest is scored a cache block of rows at a time (decode.score_draw), so
# its working memory is one block and its outputs are O(rows). A query
# scores rows x vocab logits a kind, so where it covers the whole grid
# (mask mode, scale mode's largest scale, next-token at context 0 without
# a shorter length) the grid is bounded by 2^24 / vocab cells:
# 512x512 at the default vocab of 64, 1024x1024 at a vocab of 16. MAX_CELLS
# also keeps every scale below scales.SCALE_STRIDE = 2^24, so the position
# keys of two scales never meet.
MAX_VOCAB = 1 << 18
MAX_CELLS = 1 << 20
MAX_LENGTH = 1 << 20
MAX_WINDOW = 1 << 12
MAX_QUERY_LOGITS = 1 << 24


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


def _parse_bool(text: str) -> bool:
    if text.lower() not in ("true", "false", "0", "1"):
        raise ValueError(text)
    return text.lower() in ("true", "1")


def _parse_rect(text: str):
    """top,left,height,width."""
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError(text)
    return tuple(int(p) for p in parts)


def _parse_ladder(text: str):
    """Comma-separated HxW entries."""
    shapes = []
    for part in text.lower().split(","):
        h, w = part.split("x")
        shapes.append((int(h), int(w)))
    return tuple(shapes)


def _kind(annotation):
    """The kind of value a field holds: X for Optional[X]."""
    return next((a for a in get_args(annotation) if a is not type(None)),
                annotation)


# each key's parser, read off its RunConfig annotation; every parser raises
# ValueError on text it does not take
_PARSERS = {f.name: {int: int, float: float, str: str,
                     bool: _parse_bool}.get(_kind(f.type))
            for f in fields(RunConfig)}
_PARSERS.update(rect=_parse_rect, ladder=_parse_ladder)
_INT_KEYS = {key for key, parse in _PARSERS.items() if parse is int}
_FLOAT_KEYS = {key for key, parse in _PARSERS.items() if parse is float}


def parse_config(path: str) -> RunConfig:
    """The config at ``path``, read and passed through the gate."""
    cfg = read_config(path)
    build_run(cfg)
    return cfg


def read_config(path: str) -> RunConfig:
    """The config at ``path``, read but not yet built: a value out of range
    is refused where the run is built (``build_run``)."""
    cfg = RunConfig()
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
        if key not in _PARSERS:
            raise ConfigSyntaxError(lineno, f"unknown key {key!r}")
        try:
            setattr(cfg, key, _PARSERS[key](value))
        except ValueError:
            raise ConfigSyntaxError(lineno, f"bad value {value!r} for key {key!r}") from None

    env_seed = os.environ.get("ENTROPIX_SEED")
    if env_seed is not None:
        try:
            cfg.seed = int(env_seed)
        except ValueError:
            raise ConfigValueError(f"ENTROPIX_SEED is not an integer: {env_seed!r}") from None
    return cfg


class RunParts(NamedTuple):
    """What a run decodes with (``build_run``)."""
    oracle: Oracle
    rng: RngStream
    length: int  # tokens to decode in next-token and Jacobi modes
    tp: TempParams
    ladder: Tuple[Tuple[int, int], ...]
    scale: ScaleTempParams
    accept: SpecAcceptParams
    schedule: Optional[StepSchedule]  # mask mode only


def build_run(cfg: RunConfig) -> RunParts:
    """The gate every run passes, then what the run decodes with; every
    invalid value raises ConfigValueError.

    The gate checks what no object of the run checks, all before anything
    is allocated: the mode, float finiteness, positivity, the guidance
    scale and every size (``_check_sizes``, which also resolves the
    default length and ladder). Then come the oracle, the random stream
    and the parameter objects, each of which refuses a value out of its own
    range, and the sampling pipeline's own top-k and top-p rules. The
    temperature (also under a preset), ladder and acceptance parameters are
    built in every mode, so a bad value is refused whichever mode reads it;
    the cosine schedule in mask mode only, where steps may not exceed
    cells."""
    if cfg.mode not in MODES:
        raise ConfigValueError(f"unknown mode {cfg.mode!r}; valid modes: {', '.join(MODES)}")
    # the range checks are comparisons, which NaN passes
    for name in sorted(_FLOAT_KEYS):
        v = getattr(cfg, name)
        if v is not None and not math.isfinite(v):
            raise ConfigValueError(f"{name} must be finite")
    if cfg.vocab < 2 or cfg.height < 1 or cfg.width < 1:
        raise ConfigValueError("vocab must be >= 2 and grid dimensions positive")
    if cfg.steps < 1 or cfg.window < 1:
        raise ConfigValueError("steps and window must be >= 1")
    if cfg.length is not None and cfg.length < 1:
        raise ConfigValueError("length must be positive")
    if cfg.cfg_scale < 1.0:
        raise ConfigValueError("cfg_scale must be >= 1")
    length, ladder = _check_sizes(cfg)
    shape = (cfg.height, cfg.width)
    try:
        if cfg.top_k is not None:
            _check_top_k(cfg.top_k)
        if cfg.top_p is not None:
            _check_top_p(cfg.top_p)
        # an empty rect leaves the whole grid at kappa_bg
        profile = profile_rect(shape, cfg.kappa_bg, cfg.kappa_fg,
                               cfg.rect or (0, 0, 0, 0))
        oracle = Oracle(OracleConfig(cfg.vocab, shape, profile, cfg.seed,
                                     cfg.context_sensitivity))
        tp = TempParams(cfg.t0, cfg.alpha, cfg.theta)
        if cfg.preset is not None:
            tp = preset(cfg.preset)
        rule = ENTROPY_AWARE if cfg.mode == "spec-entropy" else BASELINE
        return RunParts(
            oracle, RngStream(cfg.seed), length, tp, ladder,
            ScaleTempParams(cfg.beta, len(ladder), cfg.floor_temperature),
            SpecAcceptParams(cfg.accept_e, cfg.accept_lambda, rule,
                             cfg.literal_noise_decay),
            cosine_schedule(shape[0] * shape[1], cfg.steps)
            if cfg.mode == "mask" else None)
    except ValueError as exc:
        raise ConfigValueError(str(exc)) from None


def default_ladder(height: int, width: int):
    """Scales 1x1, 2x2, 4x4, ..., each clipped to the grid, up to the grid."""
    shapes = []
    h, w = 1, 1
    while True:
        shapes.append((min(h, height), min(w, width)))
        if shapes[-1] == (height, width):
            return tuple(shapes)
        h, w = h * 2, w * 2


def _check_sizes(cfg: RunConfig):
    """Bound every size of the run; returns its length and ladder, each
    default resolved (the default ladder allocates nothing)."""
    if cfg.vocab > MAX_VOCAB:
        raise ConfigValueError(f"vocab must be <= {MAX_VOCAB}")
    cells = cfg.height * cfg.width
    if cells > MAX_CELLS:
        raise ConfigValueError(f"height * width must be <= {MAX_CELLS}")
    length = cfg.length or cells
    if length > MAX_LENGTH:
        raise ConfigValueError(f"length must be <= {MAX_LENGTH}")
    if cfg.window > MAX_WINDOW:
        raise ConfigValueError(f"window must be <= {MAX_WINDOW}")
    ladder = cfg.ladder if cfg.ladder is not None \
        else default_ladder(cfg.height, cfg.width)
    for h, w in ladder:
        if h < 1 or w < 1:
            raise ConfigValueError("ladder entries must be positive")
        if h * w > MAX_CELLS:
            raise ConfigValueError(
                f"ladder entry {h}x{w} has more than {MAX_CELLS} cells")
    # rows per query kind of the largest oracle query the run makes
    if cfg.mode == "next-token":
        # blocks of up to a grid at context 0; under context, verified
        # windows of up to a span of positions (decode.next_token_generate)
        rows = min(cells, length) if cfg.context_sensitivity == 0.0 \
            else min(max(1, _BLOCK_ELEMS // cfg.vocab), length)
    elif cfg.mode == "mask":
        rows = cells
    elif cfg.mode == "scale":
        rows = max((h * w for h, w in ladder), default=0)
    else:
        rows = min(cfg.window, length)
    if rows * cfg.vocab > MAX_QUERY_LOGITS:
        raise ConfigValueError(
            f"one oracle query would hold {rows} x {cfg.vocab} logits; "
            f"the limit is {MAX_QUERY_LOGITS}")
    return length, ladder
