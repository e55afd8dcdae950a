"""Epoch-driven multi-session allocators (the arena policy families).

The paper's phased algorithm re-decides allocations only at phase
boundaries; the adjacent policy families the allocator arena compares
against (max-min fair water-filling, priority tiers) share that shape:
measure demand, recompute the whole allocation vector, and touch the
links only at *epoch* boundaries every ``period`` slots.  This module
holds the common machinery so each family only supplies its allocation
rule.

Demand measurement reads only state the engine's slices keep
current at every boundary (cumulative ``bits_arrived`` plus the current
backlog): a session's demand at an epoch is

    ``(bits arrived since the previous epoch + backlog) / period``

Between epochs (before :attr:`next_joint_decision`) the policy runs no
decision logic and touches no link, so the engine replays every
session's queue work up to the next epoch, runs the epoch there, and
goes on; :mod:`repro.sim.vector` states the rule.
"""

from __future__ import annotations

from abc import abstractmethod
from typing import Sequence

from repro.core.allocator import MultiSessionPolicy
from repro.errors import ConfigError


class EpochDrivenMultiSession(MultiSessionPolicy):
    """Base class: fixed-period epochs, regular-channel-only allocation.

    Subclasses implement :meth:`_allocations`, mapping the measured
    per-session demand vector to a per-session bandwidth vector whose sum
    must not exceed :attr:`capacity`.  The overflow channels stay unused
    (allocation 0), so every change is a regular-link change and the
    change count is exactly the number of epoch re-decisions that moved
    some session's value.

    Args:
        k: number of sessions.
        capacity: total bandwidth the allocation rule may hand out.
        period: epoch length in slots (demand averaging window).
        fifo: serve each session FIFO with its pooled bandwidth.
    """

    def __init__(self, k: int, capacity: float, period: int, fifo: bool = False):
        super().__init__(k=k, fifo=fifo)
        if capacity <= 0:
            raise ConfigError(f"capacity must be > 0, got {capacity!r}")
        if period < 1:
            raise ConfigError(f"period must be >= 1, got {period!r}")
        self.capacity = float(capacity)
        self.period = int(period)
        self.max_bandwidth = self.capacity
        #: Slots at which an epoch re-decision ran (diagnostics).
        self.epoch_boundaries: list[int] = []
        self._next_epoch: int | None = None
        self._started = False
        self._arrived_mark = [0.0] * self.k

    # -- the allocation rule -------------------------------------------------

    @abstractmethod
    def _allocations(self, demands: list[float]) -> list[float]:
        """Per-session bandwidths for the demand vector (sum <= capacity)."""

    def _initial_allocations(self) -> list[float]:
        """Allocations before any demand has been observed: equal split."""
        return [self.capacity / self.k] * self.k

    # -- epoch machinery -----------------------------------------------------

    def _measure_demands(self) -> list[float]:
        """Per-session demand rate over the elapsed epoch.

        Arrivals since the previous epoch plus the carried backlog, spread
        over one period — the backlog term guarantees a backlogged session
        always reports positive demand, so allocations cannot stay at zero
        while bits are queued (drain termination).
        """
        demands = []
        for i, session in enumerate(self.sessions):
            arrived = session.bits_arrived
            fresh = arrived - self._arrived_mark[i]
            self._arrived_mark[i] = arrived
            demands.append((fresh + session.backlog) / self.period)
        return demands

    def _start(self, t: int) -> None:
        self.stage_starts.append(t)
        for session, bandwidth in zip(self.sessions, self._initial_allocations()):
            session.channels.regular_link.set(t, bandwidth)
        self._next_epoch = t + self.period

    def _epoch(self, t: int) -> None:
        self.epoch_boundaries.append(t)
        allocations = self._allocations(self._measure_demands())
        for session, bandwidth in zip(self.sessions, allocations):
            session.channels.regular_link.set(t, bandwidth)
        self._next_epoch = t + self.period

    # -- the session-major slice protocol (repro.sim.vector) -----------------

    def begin_slot(self, t: int) -> None:
        """Start-up and epoch re-decision at the start of slot ``t``: the
        first half of :meth:`step`."""
        if not self._started:
            self._started = True
            self._start(t)
        if self._next_epoch is not None and t >= self._next_epoch:
            self._epoch(t)

    #: No session has events of its own between epochs.
    local_events = False

    @property
    def next_joint_decision(self) -> int | None:
        """The next epoch: it reads every session, so the engine brings
        them all to it and runs it in :meth:`begin_slot`."""
        return self._next_epoch

    def book(self, t: int, stop: int) -> None:
        """Nothing is booked in bulk: every epoch runs in :meth:`begin_slot`."""

    # -- the slot step -------------------------------------------------------

    def step(self, t: int, arrivals: Sequence[float]) -> list[float]:
        self.begin_slot(t)
        for session, bits in zip(self.sessions, arrivals):
            if bits > 0:
                session.push(t, bits)
        return self._serve_sessions(t)

    # -- diagnostics ---------------------------------------------------------

    @property
    def allocations(self) -> list[float]:
        """Current per-session regular-channel bandwidths."""
        return [s.channels.regular_link.bandwidth for s in self.sessions]
