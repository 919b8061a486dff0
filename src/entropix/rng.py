"""Seeded random streams.

A stream is identified by its seed; the same seed always replays the same
draw sequence.
"""

import numpy as np


class RngStream:
    def __init__(self, seed: int):
        if seed < 0:
            raise ValueError("seed must be nonnegative")
        self.seed = seed
        # a fixed spawn key keeps every seed's draws, and so every golden
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(0,))
        self._gen = np.random.Generator(np.random.PCG64(ss))

    def uniform(self) -> float:
        """One draw from U[0, 1)."""
        return float(self._gen.random())

    def uniforms(self, n: int) -> np.ndarray:
        return self._gen.random(n)

    def integer(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        return int(self._gen.integers(0, n))

    def integers(self, n: int, size: int) -> np.ndarray:
        """``size`` uniform integers in [0, n) in one call: the draws of
        ``size`` calls of ``integer(n)``, as ``uniforms`` gives those of
        ``uniform`` (numpy behaviour that tests/test_rng.py pins)."""
        return self._gen.integers(0, n, size=size)

    def __repr__(self):
        return f"RngStream(seed={self.seed})"
