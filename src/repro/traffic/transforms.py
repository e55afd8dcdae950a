"""Combinators over arrival processes: superpose and jitter."""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.traffic.base import ArrivalProcess


class Superpose(ArrivalProcess):
    """Sum of several independent processes (traffic aggregation)."""

    def __init__(self, parts: list[ArrivalProcess]):
        if not parts:
            raise ConfigError("parts must be non-empty")
        self.parts = list(parts)

    def generate(self, horizon: int, rng: np.random.Generator) -> np.ndarray:
        total = np.zeros(horizon, dtype=float)
        for part in self.parts:
            total += part.generate(horizon, rng)
        return total

    def __repr__(self) -> str:
        return f"Superpose(n={len(self.parts)})"


class Jittered(ArrivalProcess):
    """Multiply each slot by an independent lognormal factor."""

    def __init__(self, inner: ArrivalProcess, sigma: float):
        if sigma < 0:
            raise ConfigError(f"sigma must be >= 0, got {sigma!r}")
        self.inner = inner
        self.sigma = float(sigma)

    def generate(self, horizon: int, rng: np.random.Generator) -> np.ndarray:
        base = self.inner.generate(horizon, rng)
        if not self.sigma:
            return base
        return base * rng.lognormal(0.0, self.sigma, size=horizon)

    def __repr__(self) -> str:
        return f"Jittered({self.inner!r}, sigma={self.sigma})"
