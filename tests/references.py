"""Slow or report-rich references the tests compare the library against.

* :class:`NaiveLowTracker` and :class:`HighTracker` — ``low(t)`` by an O(n)
  scan per slot and ``high(t)`` by running window sums, the materialized
  Section 2 envelope the stage kernel's multiply-form tests must agree with;
* :func:`naive_max_slope` — the O(n) max-slope query behind the hull;
* :class:`CollectingProgress` — a progress sink that keeps every event;
* :func:`check_stream_against_profile` — the single-session feasibility
  check with a full report, whose verdict ``profile_serves`` must equal;
* :func:`scalar_reference` — a policy the engines step slot by slot, the
  all-scalar reference the slice identity tests compare against;
* :func:`queue_chunks` — a :class:`~repro.network.queue.BitQueue`'s
  ``(arrival, bits)`` chunks, the queue state the FIFO tests compare.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from repro.analysis.feasibility import (
    FeasibilityReport,
    _checked,
    _drained_delay,
    _min_window_utilization,
    _peak_bandwidth,
)
from repro.errors import ConfigError
from repro.obs.progress import ProgressEvent
from repro.params import OfflineConstraints


class NaiveLowTracker:
    """Reference implementation of ``low(t)``: O(n) scan per slot."""

    def __init__(self, offline_delay: int):
        if offline_delay < 1:
            raise ConfigError(f"offline_delay must be >= 1, got {offline_delay!r}")
        self.offline_delay = int(offline_delay)
        self._arrivals: list[float] = []
        self._low = 0.0

    @property
    def low(self) -> float:
        return self._low

    @property
    def slots_seen(self) -> int:
        return len(self._arrivals)

    def reset(self) -> None:
        self._arrivals.clear()
        self._low = 0.0

    def push(self, arrivals: float) -> float:
        self._arrivals.append(arrivals)
        t = len(self._arrivals) - 1
        window_sum = 0.0
        for u in range(t, -1, -1):
            window_sum += self._arrivals[u]
            needed = window_sum / (t - u + 1 + self.offline_delay)
            if needed > self._low:
                self._low = needed
        return self._low


class HighTracker:
    """Reference ``high(t)``: the utilization upper bound on offline BW.

    While the stage has seen fewer than ``window`` slots the bound is the
    maximum bandwidth ``B_A``; afterwards it is the running minimum of
    ``IN(window) / (U_O * W)`` over complete in-stage windows, with the
    window sum read off the stage prefix sums (the float the stage kernel
    forms).  ``high`` is monotone non-increasing within a stage.

    With ``utilization=None`` the tracker degenerates to the constant
    ``B_A`` (the pure multi-session case has no utilization constraint).
    """

    def __init__(
        self,
        utilization: float | None,
        window: int | None,
        max_bandwidth: float,
    ):
        if max_bandwidth <= 0:
            raise ConfigError(f"max_bandwidth must be > 0, got {max_bandwidth!r}")
        if utilization is not None:
            if not 0 < utilization <= 1:
                raise ConfigError(f"utilization must be in (0,1], got {utilization!r}")
            if window is None or window < 1:
                raise ConfigError(f"window must be >= 1, got {window!r}")
        self.utilization = utilization
        self.window = int(window) if window is not None else None
        self.max_bandwidth = float(max_bandwidth)
        self._sums: list[float] = [0.0]
        self._high = self.max_bandwidth

    @property
    def high(self) -> float:
        """Current value of ``high(t)`` (``B_A`` before any push)."""
        return self._high

    def reset(self) -> None:
        """Start a new stage."""
        del self._sums[1:]
        self._high = self.max_bandwidth

    def push(self, arrivals: float) -> float:
        """Advance one slot with ``arrivals`` bits; return the new high(t)."""
        sums = self._sums
        sums.append(sums[-1] + arrivals)
        slots = len(sums) - 1
        if self.utilization is None or slots < self.window:
            return self._high
        window_sum = sums[slots] - sums[slots - self.window]
        bound = window_sum / (self.utilization * self.window)
        if bound < self._high:
            self._high = bound
        return self._high


def naive_max_slope(
    points_x: list[float], points_y: list[float], qx: float, qy: float
) -> float:
    """Reference O(n) implementation used by tests and small workloads."""
    if not points_x:
        raise ConfigError("no points")
    best = float("-inf")
    for x, y in zip(points_x, points_y):
        slope = (qy - y) / (qx - x)
        if slope > best:
            best = slope
    return best


@dataclass
class CollectingProgress:
    """A sink that keeps every event (tests and programmatic callers)."""

    events: list = field(default_factory=list)

    def __call__(self, event: ProgressEvent) -> None:
        self.events.append(event)


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
    describes the first check that fails, with the exact replay's delay
    and leftover; :func:`profile_serves` gives the same verdict faster.
    """
    arrivals, profile = _checked(arrivals, profile, 1)
    max_bw, capped = _peak_bandwidth(profile, offline.bandwidth)
    if not capped:
        return FeasibilityReport(
            feasible=False,
            max_delay=-1,
            min_window_utilization=float("nan"),
            max_bandwidth_used=max_bw,
            detail=f"profile exceeds B_O: {max_bw:.6f} > {offline.bandwidth:.6f}",
        )
    max_delay, leftover, timely = _drained_delay(arrivals, profile, offline.delay)
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


@functools.cache
def _scalar_type(cls: type) -> type:
    class Scalar(cls):
        __slots__ = ()  # the same instance layout: ``__class__`` can be reassigned

    Scalar.__name__ = Scalar.__qualname__ = f"Scalar{cls.__name__}"
    return Scalar


def scalar_reference(policy):
    """``policy``, retyped as a trivial subclass of its class.

    The engines slice only the exact policy types
    (:func:`~repro.sim.vector.vector_capable`,
    :func:`~repro.sim.vector.multi_vector_capable`), so a subclass takes
    the scalar step at every slot: an all-scalar reference run.
    """
    policy.__class__ = _scalar_type(type(policy))
    return policy


def queue_chunks(queue) -> list[tuple[int, float]]:
    """Snapshot of ``queue``'s (arrival, bits) chunks, oldest first."""
    return [(arrival, bits) for arrival, bits in queue._chunks]
