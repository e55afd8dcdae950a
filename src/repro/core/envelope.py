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
This module holds the materialized ``low(t)``: ``LowTracker`` (convex-hull
max-slope queries, O(log n) per slot) for the delay-only checks of
feasibility and the multi-session certificates.  :func:`arrival_array` is
the one input check every whole-stream consumer shares.
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
