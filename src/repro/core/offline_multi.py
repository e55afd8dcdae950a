"""Offline comparators for the multi-session case (Section 3).

The offline adversary assigns each session its own piecewise-constant
bandwidth ``b_i(t)`` with ``Σ_i b_i(t) <= B_O`` and per-session delay
``<= D_O`` — crucially there is *no* statistical multiplexing across
sessions (each session's queue is served only by its own allocation), which
is why shifting demand forces offline changes.

* :func:`multi_stage_certificate` — certificate lower bound on the offline
  change count: per-session ``low_i(t)`` trackers bound each *unchanged*
  ``b_i`` from below, so the interval must contain a change as soon as
  ``Σ_i low_i(t) > B_O``.  Intervals are disjoint, so the count is a true
  lower bound (the aggregate form of Lemma 13's argument).

The constructive upper bound for multi-session experiments is the workload
generator's per-session profile certificate
(:mod:`repro.traffic.multi`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.envelope import LowTracker, arrival_array
from repro.errors import ConfigError


@dataclass(frozen=True)
class MultiStageCertificate:
    """Disjoint intervals each forcing >= 1 offline per-session change."""

    intervals: tuple[tuple[int, int], ...]

    @property
    def lower_bound(self) -> int:
        return len(self.intervals)


def multi_stage_certificate(
    arrivals: np.ndarray,
    offline_bandwidth: float,
    offline_delay: int,
) -> MultiStageCertificate:
    """Certificate lower bound on offline changes for ``(T, k)`` arrivals.

    Within an interval where no session's offline allocation changed, every
    ``b_i`` is at least the session's delay lower bound ``low_i(t)``;
    ``Σ_i low_i(t) > B_O`` is therefore a contradiction certificate.  The
    scan restarts all trackers at the next slot, keeping intervals disjoint.
    """
    array = arrival_array(arrivals, ndim=2)
    if offline_bandwidth <= 0:
        raise ConfigError("offline_bandwidth must be > 0")
    horizon, k = array.shape
    trackers = [LowTracker(offline_delay) for _ in range(k)]
    intervals: list[tuple[int, int]] = []
    start = 0
    for t in range(horizon):
        total_low = 0.0
        for i in range(k):
            total_low += trackers[i].push(float(array[t, i]))
        if total_low > offline_bandwidth * (1 + 1e-12):
            intervals.append((start, t))
            for tracker in trackers:
                tracker.reset()
            start = t + 1
    return MultiStageCertificate(intervals=tuple(intervals))


def multi_stage_lower_bound(
    arrivals: np.ndarray, offline_bandwidth: float, offline_delay: int
) -> int:
    """Lower bound on the multi-session offline change count."""
    return multi_stage_certificate(
        arrivals, offline_bandwidth, offline_delay
    ).lower_bound
