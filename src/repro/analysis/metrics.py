"""Quality-of-service metrics over finalized traces.

The paper's three cost axes, computed from the per-slot arrays the engine
records:

* **Latency** — max / quantile bit delay (from the bits-weighted delay
  histograms the queues produce).
* **Utilization** — global (whole-run) and fixed-window local (the
  offline definition).
* **Changes** — counts and rates of allocation changes.

The theorem measures — Lemma 5's existential-window utilization,
Corollary 4's queue slack and the Lindley queue behind it — live only in
:mod:`repro.verify.certificates`, next to the checks that use them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.feasibility import window_utilizations
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
