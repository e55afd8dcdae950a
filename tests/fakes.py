"""Minimal arrival processes that tests build inputs from."""

from __future__ import annotations

import numpy as np

from repro.traffic.base import ArrivalProcess


class Constant(ArrivalProcess):
    """``rate`` bits in every slot."""

    def __init__(self, rate: float):
        self.rate = float(rate)

    def generate(self, horizon: int, rng: np.random.Generator) -> np.ndarray:
        return np.full(horizon, self.rate)
