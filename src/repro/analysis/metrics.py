"""Quality-of-service metrics over finalized traces.

The paper's three cost axes, computed from the per-slot arrays the engine
records:

* **Latency** — max / quantile bit delay (from the bits-weighted delay
  histograms the queues produce).
* **Utilization** — global (whole-run), fixed-window local (the offline
  definition), and *existential*-window local (the form of the online
  guarantee in Lemma 5: for every slot, the best window of length at most
  ``W_max`` ending there).
* **Changes** — counts and rates of allocation changes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.feasibility import window_utilizations
from repro.errors import ConfigError
from repro.sim.recorder import (
    MultiSessionTrace,
    SingleSessionTrace,
    histogram_quantile,
)

_EPS = 1e-9


def global_utilization(arrivals: np.ndarray, allocation: np.ndarray) -> float:
    """Whole-run ``bits-in / bandwidth-allocated`` ratio."""
    allocated = float(np.asarray(allocation, dtype=float).sum())
    if allocated <= _EPS:
        return float("inf")
    return float(np.asarray(arrivals, dtype=float).sum()) / allocated


def min_fixed_window_utilization(
    arrivals: np.ndarray, allocation: np.ndarray, window: int
) -> float:
    """The offline utilization figure: worst full ``window`` ratio."""
    ratios = window_utilizations(arrivals, allocation, window)
    finite = ratios[~np.isnan(ratios)]
    if finite.size == 0:
        return float("inf")
    return float(finite.min())


def min_existential_window_utilization(
    arrivals: np.ndarray,
    allocation: np.ndarray,
    max_window: int,
) -> float:
    """The online guarantee of Lemma 5, measured.

    For each slot ``t`` take the *best* utilization over windows
    ``(t - w, t]`` with ``1 <= w <= max_window``; return the worst of those
    best values over all ``t`` (with ``t`` ranging over slots where some
    window has positive allocation, ``inf`` when there are none).  The
    algorithm satisfies Lemma 5 iff this value is at least ``U_O / 3``
    with ``max_window = W + 5·D_O``.

    One numpy pass per window width ``w``: the prefix differences
    ``IN(t-w, t]`` and ``B(t-w, t]`` for every ``t`` at once, their
    quotient where ``B > _EPS`` (``-inf`` elsewhere), folded into a
    per-slot running ``best`` with ``np.maximum``.  Each quotient is the
    same subtraction and division a per-slot scan would make, and max/min
    reductions are exact, so the result is bit-identical to that scan at
    ``O(W)`` numpy calls instead of ``O(T)``.

    Raises:
        ConfigError: on ``max_window < 1``, non-1-D or unequal-length
            inputs, or non-finite values (``np.maximum`` propagates NaN,
            which would otherwise poison a slot's best value).
    """
    arrivals = np.asarray(arrivals, dtype=float)
    allocation = np.asarray(allocation, dtype=float)
    if max_window < 1:
        raise ConfigError(f"max_window must be >= 1, got {max_window!r}")
    if arrivals.ndim != 1 or allocation.ndim != 1:
        raise ConfigError(
            f"arrivals and allocation must be 1-D, got shapes "
            f"{arrivals.shape} and {allocation.shape}"
        )
    if len(arrivals) != len(allocation):
        raise ConfigError(
            f"arrivals and allocation must have equal length, got "
            f"{len(arrivals)} and {len(allocation)}"
        )
    in_prefix = np.concatenate([[0.0], np.cumsum(arrivals)])
    alloc_prefix = np.concatenate([[0.0], np.cumsum(allocation)])
    if not (np.isfinite(in_prefix).all() and np.isfinite(alloc_prefix).all()):
        raise ConfigError("arrivals and allocation must be finite")
    horizon = len(arrivals)
    best = np.full(horizon, -np.inf)
    for width in range(1, min(max_window, horizon) + 1):
        in_sum = in_prefix[width:] - in_prefix[:-width]
        alloc_sum = alloc_prefix[width:] - alloc_prefix[:-width]
        ratio = np.full(len(in_sum), -np.inf)
        np.divide(in_sum, alloc_sum, out=ratio, where=alloc_sum > _EPS)
        np.maximum(best[width - 1 :], ratio, out=best[width - 1 :])
    usable = best[np.isfinite(best)]
    return float(usable.min()) if usable.size else float("inf")


def backlog_series(arrivals: np.ndarray, capacities: np.ndarray) -> np.ndarray:
    """End-of-slot queue sizes of a FIFO server with per-slot capacities.

    The Lindley recursion ``q_t = max(0, q_{t-1} + a_t - c_t)`` — used to
    reconstruct the *offline* queue from a certificate profile.
    """
    arrivals = np.asarray(arrivals, dtype=float)
    capacities = np.asarray(capacities, dtype=float)
    if arrivals.shape != capacities.shape:
        raise ConfigError("arrivals and capacities must have equal shape")
    backlog = []
    q = 0.0
    for a, c in zip(arrivals.tolist(), capacities.tolist()):
        q = max(0.0, q + a - c)
        backlog.append(q)
    return np.asarray(backlog, dtype=float)


def corollary4_margin(
    online_backlog: np.ndarray,
    arrivals: np.ndarray,
    offline_profile: np.ndarray,
    offline_bandwidth: float,
    offline_delay: int,
) -> float:
    """Corollary 4, measured: ``q_online <= q_offline + B_O · D_O``.

    Returns the minimum slack ``(q_offline + B_O·D_O) − q_online`` over the
    profile's horizon; non-negative means the corollary held throughout.
    """
    horizon = len(offline_profile)
    offline_backlog = backlog_series(arrivals[:horizon], offline_profile)
    bound = offline_backlog + offline_bandwidth * offline_delay
    slack = bound - np.asarray(online_backlog, dtype=float)[:horizon]
    return float(slack.min()) if len(slack) else float("inf")


@dataclass(frozen=True)
class QosSummary:
    """One row of the Figure-2-style comparison table."""

    label: str
    max_delay: int
    p99_delay: int
    global_utilization: float
    min_window_utilization: float
    change_count: int
    changes_per_kslot: float
    max_allocation: float

    def as_row(self) -> list[str]:
        return [
            self.label,
            str(self.max_delay),
            str(self.p99_delay),
            f"{self.global_utilization:.3f}",
            f"{self.min_window_utilization:.3f}"
            if np.isfinite(self.min_window_utilization)
            else "inf",
            str(self.change_count),
            f"{self.changes_per_kslot:.1f}",
            f"{self.max_allocation:.1f}",
        ]


def summarize_single(
    trace: SingleSessionTrace, label: str, window: int
) -> QosSummary:
    """Collapse a single-session trace into a QoS row."""
    return QosSummary(
        label=label,
        max_delay=trace.max_delay,
        p99_delay=histogram_quantile(trace.delay_histogram, 0.99),
        global_utilization=global_utilization(trace.arrivals, trace.allocation),
        min_window_utilization=min_fixed_window_utilization(
            trace.arrivals, trace.allocation, window
        ),
        change_count=trace.change_count,
        changes_per_kslot=1000.0 * trace.change_count / max(1, trace.slots),
        max_allocation=trace.max_allocation,
    )


def summarize_multi(
    trace: MultiSessionTrace, label: str, window: int
) -> QosSummary:
    """Collapse a multi-session trace into a QoS row (joint utilization)."""
    total_arrivals = trace.arrivals.sum(axis=1)
    total_allocation = trace.total_allocation
    return QosSummary(
        label=label,
        max_delay=trace.max_delay,
        p99_delay=histogram_quantile(trace.merged_delay_histogram, 0.99),
        global_utilization=global_utilization(total_arrivals, total_allocation),
        min_window_utilization=min_fixed_window_utilization(
            total_arrivals, total_allocation, window
        ),
        change_count=trace.change_count,
        changes_per_kslot=1000.0 * trace.change_count / max(1, trace.slots),
        max_allocation=trace.max_total_allocation,
    )
