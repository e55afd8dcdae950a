"""The ``low(t)`` / ``high(t)`` envelope of Section 2.

Within a stage starting at slot ``ts``, and under the assumption that the
offline algorithm holds its bandwidth constant since ``ts``:

* ``low(t)`` — the smallest bandwidth that could still meet the offline
  delay bound ``D_O`` for every arrival window ending at or before ``t``::

      low(t) = max over u in [ts, t] of  IN[u..t] / (t - u + 1 + D_O)

  (inclusive-slot translation of the paper's
  ``max IN[t'-w, t') / (w + D_O)``).

* ``high(t)`` — the largest bandwidth that still meets the offline local
  utilization ``U_O`` over every complete window of ``W`` slots inside the
  stage; ``B_A`` while the stage is younger than ``W`` slots::

      high(t) = min over complete windows of  IN(window) / (U_O * W)

A stage ends at the first ``t`` with ``high(t) < low(t)``: no constant
offline bandwidth can satisfy both constraints, hence the offline algorithm
changed its allocation at least once during the stage (Lemma 1).

Every stage decision — Figure 3, Theorem 7, the combined controller's
global stages and :func:`~repro.core.offline.stage_certificate` — runs on
the multiply-form tests of :class:`~repro.core.stagekernel.StageKernel`.
This module holds the materialized bounds: ``LowTracker`` (convex-hull
max-slope queries, O(log n) per slot) for the delay-only checks of
feasibility and the multi-session certificates, and the references the
tests compare against, ``NaiveLowTracker`` (O(n) per slot) and
``HighTracker``.  :func:`arrival_array` is the one input check every
whole-stream consumer shares.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.hull import MaxSlopeHull
from repro.errors import ConfigError


def arrival_array(
    arrivals: Sequence[float] | np.ndarray, ndim: int = 1
) -> np.ndarray:
    """``arrivals`` as a float array of ``ndim`` dimensions, or ConfigError.

    Rejects NaN and infinite values as well as negative ones: a NaN
    compares False against every threshold, so it would silently poison
    every envelope bound after it.
    """
    array = np.asarray(arrivals, dtype=float)
    if array.ndim != ndim:
        raise ConfigError(f"arrivals must be {ndim}-dimensional, got {array.ndim}")
    if array.size:
        # isfinite first: NaN slips through a plain `min() < 0` comparison.
        if not np.isfinite(array).all():
            raise ConfigError("arrivals must be finite (no NaN/inf values)")
        if float(array.min()) < 0:
            raise ConfigError("arrivals must be non-negative")
    return array


class LowTracker:
    """Incremental ``low(t)`` via max-slope queries on the lower hull.

    Slot indices are stage-relative: the ``r``-th ``push`` (``r = 0, 1, ...``)
    corresponds to absolute slot ``ts + r``.  ``low`` is monotone
    non-decreasing within a stage.
    """

    def __init__(self, offline_delay: int):
        if offline_delay < 1:
            raise ConfigError(f"offline_delay must be >= 1, got {offline_delay!r}")
        self.offline_delay = int(offline_delay)
        # sums[r]: stage arrivals over the first r slots.
        self._sums: list[float] = [0.0]
        self._hull = MaxSlopeHull()
        self._low = 0.0

    @property
    def low(self) -> float:
        """Current value of ``low(t)`` (0 before any push)."""
        return self._low

    @property
    def slots_seen(self) -> int:
        """Number of slots consumed since the last reset."""
        return len(self._sums) - 1

    def reset(self) -> None:
        """Start a new stage."""
        del self._sums[1:]
        self._hull.clear()
        self._low = 0.0

    def push(self, arrivals: float) -> float:
        """Advance one slot with ``arrivals`` bits; return the new low(t).

        For window start ``u = r`` the relevant history point is
        ``(r - 1, C(r))`` with ``C`` the stage-relative cumulative sum
        (``C(r)`` = arrivals before this slot), and the query point is
        ``(r + D_O, C(r + 1))``.
        """
        if arrivals < 0:
            raise ConfigError(f"arrivals must be >= 0, got {arrivals!r}")
        sums = self._sums
        r = len(sums) - 1
        before = sums[-1]
        sums.append(before + arrivals)
        self._hull.add(r - 1, before)
        candidate = self._hull.max_slope_from(r + self.offline_delay, sums[-1])
        if candidate > self._low:
            self._low = candidate
        return self._low


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
