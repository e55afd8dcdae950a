"""Self-similar traffic via aggregated heavy-tailed on/off sources.

The classic result (Willinger et al.): superposing many on/off sources
whose sojourn times are heavy-tailed (Pareto with 1 < α < 2) yields
asymptotically self-similar aggregate traffic — the burst-at-every-
timescale behaviour real LAN traces show, and the hardest realistic
regime for any allocation policy.  The paper's cited experimental works
([GKT95], [ACHM96]) ran against real traces with exactly this character;
this module is the synthetic stand-in.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.traffic.base import ArrivalProcess


def _pareto_sojourn(
    rng: np.random.Generator, shape: float, mean: float
) -> int:
    """One Pareto sojourn time (slots, >= 1) with the requested mean."""
    # Lomax + 1 so the minimum is 1 slot; scale to hit the mean.
    scale = (mean - 1.0) * (shape - 1.0)
    return 1 + int(rng.pareto(shape) * scale)


class SelfSimilarAggregate(ArrivalProcess):
    """Sum of ``sources`` independent heavy-tailed on/off sources.

    Args:
        sources: number of superposed on/off sources.
        rate_per_source: bits/slot a source emits while ON.
        mean_on / mean_off: mean sojourn times (slots, >= 2).
        shape: Pareto tail index in (1, 2) — closer to 1 means heavier
            tails and a higher effective Hurst parameter.
    """

    def __init__(
        self,
        sources: int = 32,
        rate_per_source: float = 1.0,
        mean_on: float = 10.0,
        mean_off: float = 30.0,
        shape: float = 1.5,
    ):
        if sources < 1:
            raise ConfigError(f"sources must be >= 1, got {sources!r}")
        if rate_per_source < 0:
            raise ConfigError("rate_per_source must be >= 0")
        if mean_on < 2 or mean_off < 2:
            raise ConfigError("mean sojourn times must be >= 2 slots")
        if not 1 < shape < 2:
            raise ConfigError(f"shape must be in (1, 2), got {shape!r}")
        self.sources = int(sources)
        self.rate_per_source = float(rate_per_source)
        self.mean_on = float(mean_on)
        self.mean_off = float(mean_off)
        self.shape = float(shape)

    def generate(self, horizon: int, rng: np.random.Generator) -> np.ndarray:
        arrivals = np.zeros(horizon, dtype=float)
        for _ in range(self.sources):
            t = 0
            # Random initial phase: start ON with stationary-ish probability.
            on = rng.random() < self.mean_on / (self.mean_on + self.mean_off)
            while t < horizon:
                mean = self.mean_on if on else self.mean_off
                sojourn = _pareto_sojourn(rng, self.shape, mean)
                end = min(horizon, t + sojourn)
                if on:
                    arrivals[t:end] += self.rate_per_source
                t = end
                on = not on
        return arrivals

    def __repr__(self) -> str:
        return (
            f"SelfSimilarAggregate(sources={self.sources}, "
            f"shape={self.shape})"
        )
