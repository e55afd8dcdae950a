"""Baseline allocation policies.

These realize the four regimes of Figure 2 plus the two heuristic families
the introduction cites as prior experimental work:

* :class:`StaticAllocator` — Fig. 2(a)/(b): never change; a high value gives
  short delay and poor utilization, a low value the reverse.
* :class:`PerSlotAllocator` — Fig. 2(c): retune every slot to exactly the
  backlog; perfect delay and utilization, unbounded changes.
* :class:`PeriodicRenegotiationAllocator` — the RCBR-style heuristic of
  [GKT95]: renegotiate on a fixed period to a percentile of recent demand.
* :class:`EwmaAllocator` — the adaptive heuristic family of [ACHM96]:
  follow an exponentially weighted demand estimate with a hysteresis band.

Multi-session baselines (the two "trivial solutions" of Section 3):

* :class:`EqualSplitMultiSession` — give every session ``B_O``: optimal
  delay, zero changes, ``k·B_O`` bandwidth.
* :class:`StoreAndForwardMultiSession` — buffer a phase, then size each
  session's channel to drain it next phase: ``2·B_O`` bandwidth, ``2·D_O``
  delay, but changes every phase (unbounded per offline change).
"""

from __future__ import annotations

from collections import deque
from typing import Sequence

import numpy as np

from repro.core.allocator import BandwidthPolicy, MultiSessionPolicy
from repro.errors import ConfigError
from repro.network.queue import EPSILON


class StaticAllocator(BandwidthPolicy):
    """Fig. 2(a)/(b): one fixed allocation for the whole run."""

    def __init__(self, bandwidth: float, name: str = "static"):
        super().__init__(name=name, max_bandwidth=bandwidth)
        self.bandwidth = float(bandwidth)

    def decide(self, t: int, arrivals: float, backlog: float) -> float:
        self.link.set(t, self.bandwidth)
        return self.link.bandwidth


class PerSlotAllocator(BandwidthPolicy):
    """Fig. 2(c): allocate exactly the outstanding bits, every slot."""

    def __init__(self, max_bandwidth: float, name: str = "per-slot"):
        super().__init__(name=name, max_bandwidth=max_bandwidth)

    def decide(self, t: int, arrivals: float, backlog: float) -> float:
        demand = min(self.max_bandwidth, backlog + arrivals)
        self.link.set(t, demand)
        return self.link.bandwidth


class PeriodicRenegotiationAllocator(BandwidthPolicy):
    """RCBR-style heuristic [GKT95]: renegotiate every ``period`` slots.

    At each renegotiation point the allocation becomes
    ``headroom * percentile(recent per-slot arrivals)`` over the trailing
    ``window`` slots, clamped to ``[0, B_A]``.  A drain guard tops the
    allocation up to ``backlog / period`` so queues cannot grow without
    bound between renegotiations.
    """

    def __init__(
        self,
        max_bandwidth: float,
        period: int,
        window: int | None = None,
        percentile: float = 0.95,
        headroom: float = 1.2,
        name: str = "periodic",
    ):
        super().__init__(name=name, max_bandwidth=max_bandwidth)
        if period < 1:
            raise ConfigError(f"period must be >= 1, got {period!r}")
        if not 0 < percentile <= 1:
            raise ConfigError(f"percentile must be in (0,1], got {percentile!r}")
        self.period = int(period)
        self.window = int(window) if window is not None else 4 * self.period
        self.percentile = float(percentile)
        self.headroom = float(headroom)
        self._recent: deque[float] = deque(maxlen=self.window)

    def decide(self, t: int, arrivals: float, backlog: float) -> float:
        self._recent.append(arrivals)
        if t % self.period == 0:
            if self._recent:
                estimate = float(
                    np.quantile(np.asarray(self._recent), self.percentile)
                )
            else:
                estimate = 0.0
            target = min(
                self.max_bandwidth,
                max(self.headroom * estimate, backlog / self.period),
            )
            self.link.set(t, target)
        return self.link.bandwidth


class EwmaAllocator(BandwidthPolicy):
    """Adaptive heuristic [ACHM96]: EWMA demand tracking with hysteresis.

    Maintains ``m_t = alpha * arrivals + (1 - alpha) * m_{t-1}`` and
    renegotiates to ``headroom * m_t`` whenever the current allocation
    falls outside the band ``[m_t, theta * headroom * m_t]`` or a drain
    guard fires (backlog exceeding ``drain_delay`` slots of service).
    """

    def __init__(
        self,
        max_bandwidth: float,
        alpha: float = 0.3,
        headroom: float = 1.5,
        theta: float = 2.0,
        drain_delay: int = 8,
        name: str = "ewma",
    ):
        super().__init__(name=name, max_bandwidth=max_bandwidth)
        if not 0 < alpha <= 1:
            raise ConfigError(f"alpha must be in (0,1], got {alpha!r}")
        if headroom < 1:
            raise ConfigError(f"headroom must be >= 1, got {headroom!r}")
        if theta <= 1:
            raise ConfigError(f"theta must be > 1, got {theta!r}")
        self.alpha = float(alpha)
        self.headroom = float(headroom)
        self.theta = float(theta)
        self.drain_delay = int(drain_delay)
        self._estimate = 0.0

    def decide(self, t: int, arrivals: float, backlog: float) -> float:
        self._estimate = self.alpha * arrivals + (1 - self.alpha) * self._estimate
        current = self.link.requested
        target = min(self.max_bandwidth, self.headroom * self._estimate)
        needs_more = current < self._estimate - EPSILON
        wastes = current > self.theta * target + EPSILON
        drain_guard = backlog > max(current, EPSILON) * self.drain_delay
        if needs_more or wastes or drain_guard:
            floor = backlog / self.drain_delay if self.drain_delay else 0.0
            self.link.set(t, min(self.max_bandwidth, max(target, floor)))
        return self.link.bandwidth


class EqualSplitMultiSession(MultiSessionPolicy):
    """Trivial solution 1: the online ``(k·B_O, D_O)``-algorithm.

    Every session permanently owns ``B_O``; no changes ever, optimal delay,
    ``k``-fold bandwidth waste.
    """

    def __init__(self, k: int, offline_bandwidth: float, fifo: bool = False):
        super().__init__(k=k, fifo=fifo)
        if offline_bandwidth <= 0:
            raise ConfigError("offline_bandwidth must be > 0")
        self.offline_bandwidth = float(offline_bandwidth)
        self.max_bandwidth = k * self.offline_bandwidth
        self._started = False

    def step(self, t: int, arrivals: Sequence[float]) -> list[float]:
        if not self._started:
            self._started = True
            self.stage_starts.append(t)
            for session in self.sessions:
                session.channels.regular_link.set(t, self.offline_bandwidth)
        for session, bits in zip(self.sessions, arrivals):
            if bits > 0:
                session.push(t, bits)
        return self._serve_sessions(t)


class StoreAndForwardMultiSession(MultiSessionPolicy):
    """Trivial solution 2: buffer one phase, drain it the next.

    During each ``D_O``-slot phase all arrivals are stored; at the phase
    end each session's channel is resized to drain its buffer within the
    next phase.  Delay ``2·D_O`` and bandwidth ``2·B_O`` (by Claim 9), but
    the allocation vector changes every phase — the unbounded-changes
    strawman the paper improves on.
    """

    def __init__(self, k: int, offline_delay: int, fifo: bool = False):
        super().__init__(k=k, fifo=fifo)
        if offline_delay < 1:
            raise ConfigError(f"offline_delay must be >= 1, got {offline_delay!r}")
        self.offline_delay = int(offline_delay)
        self._next_boundary = self.offline_delay

    def step(self, t: int, arrivals: Sequence[float]) -> list[float]:
        if t == 0:
            self.stage_starts.append(0)
        if t >= self._next_boundary:
            for session in self.sessions:
                channels = session.channels
                channels.move_regular_to_overflow()
                channels.overflow_link.set(
                    t, channels.overflow_queue.size / self.offline_delay
                )
            self._next_boundary = t + self.offline_delay
        for session, bits in zip(self.sessions, arrivals):
            if bits > 0:
                session.push(t, bits)
        return self._serve_sessions(t)
