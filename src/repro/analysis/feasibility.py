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
from repro.network.queue import EPSILON, BitQueue, replay_fifo
from repro.params import OfflineConstraints

_EPS = 1e-6

#: Machine epsilon of float64: the float-rounding unit of :func:`fifo_serves_within`.
_ULP = float(np.finfo(float).eps)


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
    :func:`~repro.network.queue.replay_fifo` runs the whole stream: the
    engine's queue kernel.
    """
    arrivals, capacities = _checked(arrivals, capacities, 1)
    queue = BitQueue("feasibility")
    histogram: dict[int, float] = {}
    replay_fifo(0, arrivals, queue, capacities, histogram)
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


def _checked(
    arrivals: np.ndarray, capacities: np.ndarray, ndim: int
) -> tuple[np.ndarray, np.ndarray]:
    """``arrivals`` through :func:`arrival_array` and ``capacities`` as a
    float array of the same shape, or ConfigError."""
    arrivals = arrival_array(arrivals, ndim)
    capacities = np.asarray(capacities, dtype=float)
    if capacities.shape != arrivals.shape:
        raise ConfigError(
            f"shapes differ: arrivals {arrivals.shape}, capacities {capacities.shape}"
        )
    if not np.all(capacities >= 0):  # NaN fails it too
        raise ConfigError("capacities must be >= 0 (and not NaN)")
    return arrivals, capacities


def _peak_bandwidth(levels: np.ndarray, bandwidth: float) -> tuple[float, bool]:
    """The peak of the per-slot ``levels``, and whether it stays within
    ``bandwidth``."""
    peak = float(levels.max(initial=0.0))
    return peak, not peak > bandwidth * (1 + _EPS)


def _padded(
    arrivals: np.ndarray, capacities: np.ndarray, delay: int
) -> tuple[np.ndarray, np.ndarray]:
    """The stream followed by ``delay`` drain slots: no arrivals, and the
    capacity's final level (0 for an empty stream)."""
    tail = np.full(delay, capacities[-1] if len(capacities) else 0.0)
    return (
        np.concatenate([arrivals, np.zeros(delay)]),
        np.concatenate([capacities, tail]),
    )


def _drained_delay(
    arrivals: np.ndarray, capacities: np.ndarray, delay: int
) -> tuple[int, float, bool]:
    """FIFO replay with ``delay`` drain slots:
    ``(max_delay, leftover, meets delay and drains)``."""
    max_delay, leftover = simulate_fifo_delay(*_padded(arrivals, capacities, delay))
    return max_delay, leftover, not (leftover > _EPS or max_delay > delay)


def fifo_serves_within(
    arrivals: np.ndarray, capacities: np.ndarray, delay: int
) -> bool:
    """Does FIFO service under ``capacities``, followed by ``delay`` drain
    slots at the final level, serve every bit within ``delay`` slots and
    drain?  The verdict of :func:`simulate_fifo_delay` on the padded
    stream, read from cumulative curves instead of a slot-by-slot replay.

    With ``S = cumsum(a - c)``, the Lindley backlog after slot ``t`` is
    ``q[t] = S[t] - min(0, min S[:t+1])``, and with ``C = cumsum(c)`` over
    the padded capacities, the bits that arrived by slot ``t`` all leave by
    ``t + delay`` exactly when ``q[t] <= C[t+delay] - C[t]``: capacity
    after ``t`` goes to older bits first and cannot be banked.  Bits queued
    at the stream's end are covered by its last slot, so the verdict is
    the sign of the margin ``min_t (C[t+delay] - C[t] - q[t])`` over the
    original ``n`` slots.

    A margin above ``+bound`` is feasible, one below ``-bound`` is not, and
    one inside re-runs the exact replay, so the verdict always equals the
    replay's.  With ``m = n + delay`` padded slots, ``A`` the pushed bits,
    ``K`` the padded capacity, ``u`` the machine epsilon and
    ``E = EPSILON``, the bound covers:

    * the replay's EPSILON rules.  Dust arrivals are not pushed, and the
      curve zeroes them too.  The pop that ends a slot's serve may drop a
      residue of up to ``E``, and a queue whose size falls below ``E`` is
      cleared: each at most once per slot, so at most ``2mE`` bits leave
      the queue unserved.  These only shrink the replay's backlog, so a
      positive margin stays feasible.  Below ``-(2m + 1) E``, more than
      ``E`` of the bits queued at some slot ``t`` are still queued after
      ``t + delay``: the replay serves them late or ends with more than
      ``E`` queued (a size of exactly ``E`` reads as empty).
    * float rounding, to first order.  The curves: each partial sum of
      ``S`` or ``C`` errs by at most ``(m + 1) u/2 (A + K)``; ``q`` and
      the window are differences of two of them, and the margin adds
      three roundings of at most ``u/2 (A + K)``: ``(2m + 4) u (A + K)``.
      The replay: ``remaining -= take`` perturbs a slot's capacity once
      per take (at most ``2m`` takes), ``queued - take`` and the
      ``queued - E`` pop test perturb a chunk once per slot each, and
      ``size`` drifts by at most ``3m`` roundings, which moves the
      sub-``E`` clear test; the drift resets at every empty queue, so
      disjoint clears share it: ``(2mK + 5mA) u/2 <= 3m u (A + K)``.
      Together ``(5m + 4) u (A + K)``, doubled for the higher-order
      terms: ``(10m + 8) u (A + K)``.
    """
    arrivals, capacities = _checked(arrivals, capacities, 1)
    n = len(arrivals)
    # The replay never pushes dust, so neither does the curve.
    pushed = np.where(arrivals > EPSILON, arrivals, 0.0)
    walk = np.cumsum(pushed - capacities)
    backlog = walk - np.minimum(np.minimum.accumulate(walk), 0.0)
    _, padded_capacities = _padded(arrivals, capacities, delay)
    offered = np.cumsum(padded_capacities)
    # offered[t + delay] - offered[t]: the capacity of slots t+1 .. t+delay.
    margin = float((offered[delay:] - offered[:n] - backlog).min(initial=np.inf))
    m = n + delay
    total = float(pushed.sum() + padded_capacities.sum())
    bound = (2 * m + 1) * EPSILON + (10 * m + 8) * _ULP * total
    if margin > bound:
        return True
    if margin < -bound:
        return False
    return _drained_delay(arrivals, capacities, delay)[2]


def _min_window_utilization(
    arrivals: np.ndarray, profile: np.ndarray, offline: OfflineConstraints
) -> tuple[float, bool]:
    """The least full-window utilization (inf when no window has bandwidth
    or the scenario has no utilization constraint), and whether it meets
    ``U_O``."""
    if offline.utilization is None or offline.window is None:
        return float("inf"), True
    ratios = window_utilizations(arrivals, profile, offline.window)
    finite = ratios[~np.isnan(ratios)]
    min_util = float(finite.min()) if finite.size else float("inf")
    return min_util, not min_util < offline.utilization * (1 - _EPS)


def profile_serves(
    arrivals: np.ndarray,
    profile: np.ndarray,
    offline: OfflineConstraints,
) -> bool:
    """Does ``profile`` serve ``arrivals`` within the offline constraints?

    Checks that the profile respects ``B_O``, that every full ``W``-window
    of it achieves utilization ``>= U_O`` (skipped when the scenario has
    no utilization constraint), and that FIFO service under it meets the
    delay bound ``D_O`` and drains.  Each is a few vector passes; only a
    delay margin within float and EPSILON error of zero replays the queue
    (:func:`fifo_serves_within`).
    """
    arrivals, profile = _checked(arrivals, profile, 1)
    return (
        _peak_bandwidth(profile, offline.bandwidth)[1]
        and _min_window_utilization(arrivals, profile, offline)[1]
        and fifo_serves_within(arrivals, profile, offline.delay)
    )


def check_multi_against_profiles(
    arrivals: np.ndarray,
    profiles: np.ndarray,
    offline_bandwidth: float,
    offline_delay: int,
) -> FeasibilityReport:
    """Per-session delay feasibility plus the shared bandwidth cap, with the
    exact replay's delays; :func:`profiles_serve` gives the same verdict
    faster."""
    arrivals, profiles = _checked(arrivals, profiles, 2)
    max_total, capped = _peak_bandwidth(profiles.sum(axis=1), offline_bandwidth)
    if not capped:
        return FeasibilityReport(
            feasible=False,
            max_delay=-1,
            min_window_utilization=float("nan"),
            max_bandwidth_used=max_total,
            detail=f"Σ profiles {max_total:.6f} > B_O={offline_bandwidth:.6f}",
        )
    worst_delay = 0
    for i in range(arrivals.shape[1]):
        max_delay, _, timely = _drained_delay(
            arrivals[:, i], profiles[:, i], offline_delay
        )
        worst_delay = max(worst_delay, max_delay)
        if not timely:
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


def profiles_serve(
    arrivals: np.ndarray,
    profiles: np.ndarray,
    offline_bandwidth: float,
    offline_delay: int,
) -> bool:
    """``check_multi_against_profiles(...).feasible``, without the report:
    the ``Σ`` cap, then each session's :func:`fifo_serves_within`."""
    arrivals, profiles = _checked(arrivals, profiles, 2)
    return _peak_bandwidth(profiles.sum(axis=1), offline_bandwidth)[1] and all(
        fifo_serves_within(arrivals[:, i], profiles[:, i], offline_delay)
        for i in range(arrivals.shape[1])
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
