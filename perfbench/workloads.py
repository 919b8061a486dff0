"""The benchmark's four workloads: the config each operation runs, and the
parameters the independent reference needs to recompute its outputs.

Every workload uses a 64-token vocabulary. The temperature parameters are
written here as published (llamagen: t0 2.5, alpha 3.0, theta 0.6) rather
than read back from the program, so the reference also checks the preset
table.
"""

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

LLAMAGEN = (2.5, 3.0, 0.6)


@dataclass(frozen=True)
class Workload:
    name: str
    keys: Dict[str, object]  # config keys other than seed and out_dir
    temp: Tuple[float, float, float]  # t0, alpha, theta
    tokens: int  # tokens every operation emits
    invocations: Optional[int]  # model invocations per operation, if fixed
    warmup: Dict[str, object] = field(default_factory=dict)

    @property
    def mode(self) -> str:
        return str(self.keys["mode"])

    def get(self, key, default=None):
        return self.keys.get(key, default)

    def config_text(self, seed: int, out_dir: str, **overrides) -> str:
        keys = {**self.keys, **overrides, "seed": seed, "out_dir": out_dir}
        return "".join(f"{k} = {v}\n" for k, v in keys.items())


# Warm-up: the same mode and options on an 8x8 grid, which runs every code
# path of an operation in a few milliseconds.
_SMALL = {"height": 8, "width": 8, "rect": "2,2,4,4"}

_CONTEXT_GRID = {"vocab": 64, "height": 64, "width": 64, "preset": "llamagen",
                 "kappa_bg": 0.9, "kappa_fg": 0.1, "rect": "16,16,32,32",
                 "cfg_scale": 1.5, "top_k": 16}

WORKLOADS = {w.name: w for w in (
    Workload(
        "seq-context",
        {"mode": "next-token", **_CONTEXT_GRID, "context_sensitivity": 0.5,
         "length": 4096},
        LLAMAGEN, 4096, 4096,
        {**_SMALL, "length": 64}),
    Workload(
        "mask-guided",
        {"mode": "mask", **_CONTEXT_GRID, "context_sensitivity": 0.4,
         "steps": 16},
        LLAMAGEN, 4096, 16,
        {**_SMALL, "steps": 4}),
    Workload(
        "scale-ladder",
        {"mode": "scale", "vocab": 64, "height": 128, "width": 128,
         "preset": "llamagen", "kappa_bg": 0.9, "kappa_fg": 0.1,
         "rect": "32,32,64,64", "context_sensitivity": 0.5, "cfg_scale": 1.5,
         "top_p": 0.9, "beta": 0.3, "floor_temperature": 0.05},
        LLAMAGEN, 21845, 8,
        _SMALL),
    Workload(
        "spec-context",
        {"mode": "spec-entropy", "vocab": 64, "height": 16, "width": 16,
         "kappa_bg": 0.95, "kappa_fg": 0.05, "rect": "4,4,8,9",
         "context_sensitivity": 1.0, "t0": 0.5, "alpha": 3.0, "theta": 0.2,
         "window": 16, "length": 4096, "accept_e": 8.0,
         "accept_lambda": 16.0},
        (0.5, 3.0, 0.2), 4096, None,
        {"length": 64}),
)}
