"""Trend fitting for the scaling-shape checks.

The theorems predict *shapes* — ratios growing like ``log B_A``, like
``log(1/U_O)``, linearly in ``k`` — and the experiments should check the
shape, not just a loose ceiling.  These helpers fit the measured series and
report goodness-of-fit so a check can assert, e.g., "changes grow linearly
in k (R² > 0.9) with slope within the proved constant".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError


@dataclass(frozen=True)
class LinearFit:
    """Least-squares line ``y = slope * x + intercept``."""

    slope: float
    intercept: float
    r_squared: float

    def predict(self, x: float) -> float:
        return self.slope * x + self.intercept


def fit_linear(xs: list[float], ys: list[float]) -> LinearFit:
    """Ordinary least squares with R²."""
    if len(xs) != len(ys):
        raise ConfigError("xs and ys must have equal length")
    if len(xs) < 2:
        raise ConfigError("need at least two points")
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    x_mean, y_mean = x.mean(), y.mean()
    ss_xx = float(((x - x_mean) ** 2).sum())
    if ss_xx == 0:
        raise ConfigError("xs are constant; cannot fit a slope")
    slope = float(((x - x_mean) * (y - y_mean)).sum()) / ss_xx
    intercept = y_mean - slope * x_mean
    residuals = y - (slope * x + intercept)
    ss_tot = float(((y - y_mean) ** 2).sum())
    r_squared = 1.0 - float((residuals**2).sum()) / ss_tot if ss_tot > 0 else 1.0
    return LinearFit(slope=slope, intercept=intercept, r_squared=r_squared)


def growth_exponent(xs: list[float], ys: list[float]) -> float:
    """Log-log slope: ~1 for linear growth, ~0 for bounded series.

    Points with non-positive y are clamped to a tiny epsilon so an
    occasional zero does not blow up the log.
    """
    log_x = [math.log(x) for x in xs]
    log_y = [math.log(max(y, 1e-9)) for y in ys]
    return fit_linear(log_x, log_y).slope
