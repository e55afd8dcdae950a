"""Offline (clairvoyant) comparators for the single-session case.

The paper's competitive ratios are measured against the minimum number of
bandwidth changes any offline algorithm with the stringent constraints
``(B_O, D_O, U_O)`` could make.  That optimum is existential; we bracket it
from both sides:

* :func:`stage_lower_bound` — a *certificate lower bound*: scan the stream
  once with the ``low``/``high`` envelope (the end test of
  :class:`~repro.core.stagekernel.StageKernel`); every time the envelope
  empties (``high < low``) no constant offline bandwidth can span the
  interval, so the offline algorithm changed at least once inside it
  (Lemma 1's argument).  Consecutive certificate intervals are kept
  disjoint, so the count is a true lower bound on OPT.

* :func:`constructive_offline_via_online` — a *feasible upper bound*: run
  the online algorithm itself with twice-tightened parameters
  (``D_O' = D_O/2``, ``U_O' = 3·U_O``); by Theorem 6 its output satisfies
  the offline constraints ``(B_O, D_O, U_O)``, so its change count is an
  upper bound on OPT achieved by an actually-executable schedule.

* The third bracket — the generator certificate — lives in
  :mod:`repro.traffic.feasible`: streams synthesized from an explicit
  piecewise-constant profile carry that profile's change count as a
  feasible offline schedule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.envelope import arrival_array
from repro.core.single_session import SingleSessionOnline
from repro.core.stagekernel import StageKernel
from repro.errors import ConfigError
from repro.params import OfflineConstraints
from repro.sim.engine import run_single_session


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


@dataclass(frozen=True)
class OfflineScheduleResult:
    """A concrete feasible offline schedule and its change count."""

    bandwidths: np.ndarray
    change_count: int
    max_delay: int


def constant_offline_schedule(
    arrivals: np.ndarray | list[float], offline: OfflineConstraints
) -> OfflineScheduleResult:
    """The zero-change schedule: allocate ``B_O`` always.

    Feasible for every ``(B_O, D_O)``-feasible stream when there is no
    utilization constraint (a work-conserving max-bandwidth server
    dominates every schedule it could be compared to); raises otherwise
    because constant ``B_O`` generally violates utilization.
    """
    if offline.utilization is not None:
        raise ConfigError(
            "constant B_O violates utilization constraints in general; "
            "use constructive_offline_via_online"
        )
    length = len(arrivals)
    return OfflineScheduleResult(
        bandwidths=np.full(length, offline.bandwidth, dtype=float),
        change_count=0,
        max_delay=offline.delay,
    )


def constructive_offline_via_online(
    arrivals: np.ndarray | list[float],
    offline: OfflineConstraints,
) -> OfflineScheduleResult:
    """Build a feasible ``(B_O, D_O, U_O)`` schedule with few changes.

    Runs :class:`SingleSessionOnline` with twice-tightened parameters
    (``D_O/2``, ``3·U_O``); Theorem 6 then guarantees the produced schedule
    meets delay ``D_O`` and utilization ``U_O``.  Requires ``D_O`` even,
    ``U_O <= 1/3``, and the stream feasible under the tightened
    constraints.  The change count upper-bounds offline OPT.
    """
    if offline.utilization is None or offline.window is None:
        raise ConfigError("needs a utilization constraint")
    if offline.delay % 2 != 0:
        raise ConfigError(f"D_O must be even, got {offline.delay}")
    if offline.utilization > 1.0 / 3.0 + 1e-12:
        raise ConfigError(f"U_O must be <= 1/3, got {offline.utilization}")
    policy = SingleSessionOnline(
        max_bandwidth=offline.bandwidth,
        offline_delay=offline.delay // 2,
        offline_utilization=3.0 * offline.utilization,
        window=offline.window,
        name="offline-via-online",
    )
    trace = run_single_session(policy, arrivals)
    return OfflineScheduleResult(
        bandwidths=trace.allocation[: len(arrivals)],
        change_count=trace.change_count,
        max_delay=trace.max_delay,
    )
