"""Deterministic spikes and the paper's Figure 1 demand example."""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.traffic.base import ArrivalProcess
from repro.traffic.onoff import OnOffBursts
from repro.traffic.transforms import Superpose


class Spikes(ArrivalProcess):
    """Isolated spikes of ``height`` bits at the given slots."""

    def __init__(self, slots: list[int], height: float):
        if any(s < 0 for s in slots):
            raise ConfigError("spike slots must be >= 0")
        if height < 0:
            raise ConfigError(f"height must be >= 0, got {height!r}")
        self.slots = sorted(int(s) for s in slots)
        self.height = float(height)

    def generate(self, horizon: int, rng: np.random.Generator) -> np.ndarray:
        arrivals = np.zeros(horizon, dtype=float)
        for slot in self.slots:
            if slot < horizon:
                arrivals[slot] += self.height
        return arrivals

    def __repr__(self) -> str:
        return f"Spikes(n={len(self.slots)}, height={self.height})"


def figure1_demand(mean_rate: float = 8.0) -> ArrivalProcess:
    """The qualitative shape of the paper's Figure 1 demand example.

    A base of bursty on/off traffic with occasional tall spikes — "bursty
    nature of traffic [where] the required bandwidth may change
    dramatically over time, usually in an unpredictable manner".
    """
    base = OnOffBursts(
        on_rate=2.0 * mean_rate, mean_on=20, mean_off=15, jitter=0.4
    )
    spikes = Spikes(slots=[60, 140, 300], height=12.0 * mean_rate)
    return Superpose([base, spikes])
