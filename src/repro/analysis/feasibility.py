"""Feasibility checking — footnote 1 of the paper, made executable.

"Whenever we consider an algorithm with given constraints we always assume
that all the input streams are feasible; i.e., can be served within these
constraints."  These functions verify that assumption against a concrete
offline schedule (the generator's certificate profile) or against a
constant bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.envelope import LowTracker, arrival_array
from repro.errors import ConfigError
from repro.network.queue import BitQueue
from repro.params import OfflineConstraints

_EPS = 1e-6


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of a feasibility check with diagnostics."""

    feasible: bool
    max_delay: int
    min_window_utilization: float
    max_bandwidth_used: float
    detail: str = ""


def simulate_fifo_delay(
    arrivals: np.ndarray, capacities: np.ndarray
) -> tuple[int, float]:
    """Serve ``arrivals`` FIFO with per-slot ``capacities``.

    Returns ``(max_delay, leftover_bits)``.  FIFO equals EDF here because
    deadlines are ordered by arrival, so if any schedule with these
    capacities meets the deadlines, this one does.  One
    :meth:`BitQueue.replay <repro.network.queue.BitQueue.replay>` runs the
    whole stream: the engine's queue kernel.
    """
    arrivals = np.asarray(arrivals, dtype=float)
    capacities = np.asarray(capacities, dtype=float)
    if len(arrivals) != len(capacities):
        raise ConfigError("arrivals and capacities must have equal length")
    queue = BitQueue("feasibility")
    histogram: dict[int, float] = {}
    queue.replay(0, arrivals, capacities, histogram)
    max_delay = max(histogram, default=0)
    oldest = queue.oldest_arrival
    if oldest is not None:
        max_delay = max(max_delay, len(arrivals) - oldest)
    return max_delay, queue.size


def window_utilizations(
    arrivals: np.ndarray, allocation: np.ndarray, window: int
) -> np.ndarray:
    """``IN(t-W, t] / B(t-W, t]`` for every full window (NaN where B = 0)."""
    if window < 1:
        raise ConfigError(f"window must be >= 1, got {window!r}")
    arrivals = np.asarray(arrivals, dtype=float)
    allocation = np.asarray(allocation, dtype=float)
    if len(arrivals) < window:
        return np.empty(0)
    kernel = np.ones(window)
    in_sums = np.convolve(arrivals, kernel, mode="valid")
    alloc_sums = np.convolve(allocation, kernel, mode="valid")
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(alloc_sums > _EPS, in_sums / alloc_sums, np.nan)
    return ratios


def _peak_bandwidth(
    profile: np.ndarray, offline: OfflineConstraints
) -> tuple[float, bool]:
    """The profile's peak level, and whether it stays within ``B_O``."""
    max_bw = float(profile.max(initial=0.0))
    return max_bw, not max_bw > offline.bandwidth * (1 + _EPS)


def _drained_delay(
    arrivals: np.ndarray, profile: np.ndarray, offline: OfflineConstraints
) -> tuple[int, float, bool]:
    """FIFO replay with ``D_O`` drain slots at the profile's final level:
    ``(max_delay, leftover, meets D_O and drains)``."""
    tail = np.full(offline.delay, profile[-1] if len(profile) else 0.0)
    padded_arrivals = np.concatenate([arrivals, np.zeros(offline.delay)])
    padded_profile = np.concatenate([profile, tail])
    max_delay, leftover = simulate_fifo_delay(padded_arrivals, padded_profile)
    return max_delay, leftover, not (leftover > _EPS or max_delay > offline.delay)


def _min_window_utilization(
    arrivals: np.ndarray, profile: np.ndarray, offline: OfflineConstraints
) -> tuple[float, bool]:
    """The least full-window utilization (inf when no window has bandwidth
    or the scenario has no utilization constraint), and whether it meets
    ``U_O``."""
    if offline.utilization is None or offline.window is None:
        return float("inf"), True
    if len(arrivals) != len(profile):
        raise ConfigError("arrivals and capacities must have equal length")
    ratios = window_utilizations(arrivals, profile, offline.window)
    finite = ratios[~np.isnan(ratios)]
    min_util = float(finite.min()) if finite.size else float("inf")
    return min_util, not min_util < offline.utilization * (1 - _EPS)


def check_stream_against_profile(
    arrivals: np.ndarray,
    profile: np.ndarray,
    offline: OfflineConstraints,
) -> FeasibilityReport:
    """Does ``profile`` serve ``arrivals`` within the offline constraints?

    Checks (i) the profile respects ``B_O``; (ii) FIFO service under the
    profile meets the delay bound ``D_O`` and drains; (iii) every full
    ``W``-window of the profile achieves utilization ``>= U_O`` (skipped
    when the scenario has no utilization constraint).  The report
    describes the first check that fails; :func:`profile_serves` gives the
    same verdict faster.
    """
    arrivals = np.asarray(arrivals, dtype=float)
    profile = np.asarray(profile, dtype=float)
    max_bw, capped = _peak_bandwidth(profile, offline)
    if not capped:
        return FeasibilityReport(
            feasible=False,
            max_delay=-1,
            min_window_utilization=float("nan"),
            max_bandwidth_used=max_bw,
            detail=f"profile exceeds B_O: {max_bw:.6f} > {offline.bandwidth:.6f}",
        )
    max_delay, leftover, timely = _drained_delay(arrivals, profile, offline)
    if not timely:
        return FeasibilityReport(
            feasible=False,
            max_delay=max_delay,
            min_window_utilization=float("nan"),
            max_bandwidth_used=max_bw,
            detail=f"delay {max_delay} > D_O={offline.delay} "
            f"(leftover {leftover:.6f})",
        )
    min_util, utilized = _min_window_utilization(arrivals, profile, offline)
    if not utilized:
        return FeasibilityReport(
            feasible=False,
            max_delay=max_delay,
            min_window_utilization=min_util,
            max_bandwidth_used=max_bw,
            detail=f"window utilization {min_util:.6f} < "
            f"U_O={offline.utilization:.6f}",
        )
    return FeasibilityReport(
        feasible=True,
        max_delay=max_delay,
        min_window_utilization=min_util,
        max_bandwidth_used=max_bw,
    )


def profile_serves(
    arrivals: np.ndarray,
    profile: np.ndarray,
    offline: OfflineConstraints,
) -> bool:
    """``check_stream_against_profile(...).feasible``, cheapest check first.

    The ``B_O`` cap and the window utilizations are a few vector passes;
    the FIFO replay walks the queue slot by slot, so it runs only for a
    profile that passes both.
    """
    arrivals = np.asarray(arrivals, dtype=float)
    profile = np.asarray(profile, dtype=float)
    return (
        _peak_bandwidth(profile, offline)[1]
        and _min_window_utilization(arrivals, profile, offline)[1]
        and _drained_delay(arrivals, profile, offline)[2]
    )


def check_multi_against_profiles(
    arrivals: np.ndarray,
    profiles: np.ndarray,
    offline_bandwidth: float,
    offline_delay: int,
) -> FeasibilityReport:
    """Per-session delay feasibility plus the shared bandwidth cap."""
    arrivals = np.asarray(arrivals, dtype=float)
    profiles = np.asarray(profiles, dtype=float)
    if arrivals.shape != profiles.shape:
        raise ConfigError(
            f"shapes differ: arrivals {arrivals.shape}, profiles {profiles.shape}"
        )
    totals = profiles.sum(axis=1)
    max_total = float(totals.max(initial=0.0))
    if max_total > offline_bandwidth * (1 + _EPS):
        return FeasibilityReport(
            feasible=False,
            max_delay=-1,
            min_window_utilization=float("nan"),
            max_bandwidth_used=max_total,
            detail=f"Σ profiles {max_total:.6f} > B_O={offline_bandwidth:.6f}",
        )
    worst_delay = 0
    for i in range(arrivals.shape[1]):
        tail = np.full(offline_delay, profiles[-1, i] if len(profiles) else 0.0)
        padded_arrivals = np.concatenate([arrivals[:, i], np.zeros(offline_delay)])
        padded_profile = np.concatenate([profiles[:, i], tail])
        max_delay, leftover = simulate_fifo_delay(padded_arrivals, padded_profile)
        worst_delay = max(worst_delay, max_delay)
        if leftover > _EPS or max_delay > offline_delay:
            return FeasibilityReport(
                feasible=False,
                max_delay=max_delay,
                min_window_utilization=float("nan"),
                max_bandwidth_used=max_total,
                detail=f"session {i}: delay {max_delay} > D_O={offline_delay}",
            )
    return FeasibilityReport(
        feasible=True,
        max_delay=worst_delay,
        min_window_utilization=float("inf"),
        max_bandwidth_used=max_total,
    )


def constant_bandwidth_needed(arrivals: np.ndarray, delay: int) -> float:
    """Smallest constant bandwidth meeting the delay bound (global low)."""
    tracker = LowTracker(delay)
    peak = 0.0
    for bits in arrival_array(arrivals).tolist():
        peak = tracker.push(bits)
    return peak


def is_delay_feasible(arrivals: np.ndarray, bandwidth: float, delay: int) -> bool:
    """Can constant ``bandwidth`` serve the stream within ``delay``?"""
    return constant_bandwidth_needed(arrivals, delay) <= bandwidth * (1 + _EPS)
