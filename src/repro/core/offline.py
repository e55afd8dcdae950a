"""Offline (clairvoyant) comparators for the single-session case.

The paper's competitive ratios are measured against the minimum number of
bandwidth changes any offline algorithm with the stringent constraints
``(B_O, D_O, U_O)`` could make.  That optimum is existential; the
experiments bracket it from both sides:

* :func:`stage_lower_bound` — a *certificate lower bound*: scan the stream
  once with the ``low``/``high`` envelope (the end test of
  :class:`~repro.core.stagekernel.StageKernel`); every time the envelope
  empties (``high < low``) no constant offline bandwidth can span the
  interval, so the offline algorithm changed at least once inside it
  (Lemma 1's argument).  Consecutive certificate intervals are kept
  disjoint, so the count is a true lower bound on OPT.

* The upper bound — the generator certificate — lives in
  :mod:`repro.traffic.feasible`: streams synthesized from an explicit
  piecewise-constant profile carry that profile's change count as a
  feasible offline schedule (``FeasibleStream.profile_changes``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.envelope import arrival_array
from repro.core.stagekernel import StageKernel
from repro.errors import ConfigError
from repro.params import OfflineConstraints


@dataclass(frozen=True)
class StageCertificate:
    """Disjoint intervals each forcing >= 1 offline bandwidth change."""

    intervals: tuple[tuple[int, int], ...]

    @property
    def lower_bound(self) -> int:
        """Minimum number of offline changes certified."""
        return len(self.intervals)


def stage_certificate(
    arrivals: np.ndarray | list[float],
    offline: OfflineConstraints,
) -> StageCertificate:
    """Scan a stream and emit disjoint offline-change certificates.

    Each returned interval ``[s, e]`` (inclusive slots) admits no constant
    bandwidth that satisfies both the delay bound ``D_O`` and the local
    utilization ``U_O`` within the interval, hence the offline algorithm
    changed its allocation somewhere inside it.  The scan restarts at
    ``e + 1`` so intervals never share a slot.  Every slot is end-tested,
    an interval's first included.
    """
    if offline.utilization is None or offline.window is None:
        raise ConfigError(
            "stage_certificate needs a utilization constraint; use "
            "multi_stage_certificate for the delay-only case"
        )
    values = arrival_array(arrivals).tolist()
    kernel = StageKernel(
        offline.delay, offline.utilization, offline.window, offline.bandwidth
    )
    # A rung at B_O disables the ladder test: only the end test matters.
    kernel.set_rung(offline.bandwidth, 1.0)
    intervals: list[tuple[int, int]] = []
    start = 0
    for t, bits in enumerate(values):
        end, _ = kernel.advance(bits)
        if end:
            intervals.append((start, t))
            kernel.reset()
            kernel.set_rung(offline.bandwidth, 1.0)
            start = t + 1
    return StageCertificate(intervals=tuple(intervals))


def stage_lower_bound(
    arrivals: np.ndarray | list[float],
    offline: OfflineConstraints,
) -> int:
    """Lower bound on the offline change count (see module docstring)."""
    return stage_certificate(arrivals, offline).lower_bound
