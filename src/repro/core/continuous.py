"""The continuous multi-session algorithm of Figure 5 (Section 3.2).

Like the phased algorithm, but bandwidth is adjusted *on demand* rather
than at phase ends: whenever bits are added to a session's regular queue
the TEST fires — if the queue outgrew its regular allocation
(``|Q_i^r| > B_i^r · D_O``), the session gets another ``B_O/k`` of regular
bandwidth, the queue moves to the overflow channel, the overflow
allocation is raised by exactly ``q / D_O``, and a REDUCE timer returns
that bandwidth after ``D_O`` slots.  When the regular channel exceeds
``2·B_O`` the stage ends: all queues flush to overflow and a RESET
restarts regular allocations at ``B_O/k`` (no drain wait).

Guarantees (Theorem 17): total bandwidth ≤ ``B_A = 5·B_O`` (regular
≤ ``2·B_O`` + one quantum, overflow ≤ ``3·B_O`` by Lemma 16), delay
≤ ``2·D_O`` (Lemma 15), and ``O(k)`` online changes per stage — against
≥ 1 change per stage for any offline ``(B_O, D_O)``-algorithm.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.allocator import RegularOverflowPolicy, check_arrival
from repro.network.channel import SessionChannels
from repro.network.queue import EPSILON
from repro.obs.runtime import count as obs_count
from repro.sim.events import EventQueue


class ContinuousMultiSession(RegularOverflowPolicy):
    """Figure 5: demand-driven shared-channel allocator.

    Args:
        k: number of sessions.
        offline_bandwidth: ``B_O`` — the comparator's total bandwidth.
        offline_delay: ``D_O`` — the comparator's delay bound; also the
            REDUCE timer length.
        fifo: serve each session FIFO with its pooled bandwidth.
    """

    _counters = "core.continuous"

    def __init__(
        self,
        k: int,
        offline_bandwidth: float,
        offline_delay: int,
        fifo: bool = False,
    ):
        super().__init__(k, offline_bandwidth, offline_delay, fifo, scale=5.0)
        #: Each session's pending REDUCE timers: a timer touches only its
        #: own session's overflow link.
        self._reductions = [EventQueue() for _ in range(self.k)]

    # -- primitive operations ------------------------------------------------

    def _raise_overflow(self, t: int, index: int, amount: float) -> None:
        """Add overflow bandwidth and schedule its REDUCE after D_O slots."""
        if amount <= EPSILON:
            return
        obs_count("core.continuous.overflow_raises")
        link = self.sessions[index].channels.overflow_link
        link.set(t, link.bandwidth + amount)
        self._reductions[index].schedule_after(
            t, self.offline_delay, lambda now, i=index, b=amount: self._reduce(now, i, b)
        )

    def _reduce(self, t: int, index: int, amount: float) -> None:
        """Figure 5's REDUCE(i, D_O, B): return borrowed overflow bandwidth."""
        link = self.sessions[index].channels.overflow_link
        link.set(t, max(0.0, link.bandwidth - amount))

    def _spill(self, t: int, index: int) -> None:
        """Move a regular queue to overflow with a matched allocation."""
        channels = self.sessions[index].channels
        moved = channels.move_regular_to_overflow()
        self._raise_overflow(t, index, moved / self.offline_delay)

    def _grows(self, channels: SessionChannels, bits: float) -> bool:
        """Whether TEST fires once ``bits`` are pushed (read without
        pushing: the size ``BitQueue.push`` would leave)."""
        if bits <= 0:
            return False
        size = channels.regular_queue._size
        if bits > EPSILON:
            size += bits
        return size > self._limit(channels)

    def _test(self, t: int, index: int) -> bool:
        """Figure 5's TEST(i); returns True when the stage must end."""
        channels = self.sessions[index].channels
        if channels.regular_queue.size <= self._limit(channels):
            return False
        regular = channels.regular_link
        regular.set(t, regular.bandwidth + self.quantum)
        self._spill(t, index)
        return self._stage_over()

    # -- hooks for the combined algorithm (§4) ----------------------------------

    def restart_stage(self, t: int, offline_bandwidth: float) -> None:
        """End the local stage and restart with a new ``B_O`` (§4)."""
        self._parameterize(offline_bandwidth)
        self._started = True
        for index in range(self.k):
            self._spill(t, index)
        self._reset(t, initial=False)

    def cancel_overflow(self, t: int) -> None:
        """Zero overflow allocations and drop pending REDUCE timers
        (queues were stolen by a GLOBAL RESET)."""
        for events in self._reductions:
            events.clear()
        for session in self.sessions:
            session.channels.overflow_link.set(t, 0.0)

    # -- the session-major slice protocol (repro.sim.vector) -------------------

    def watch(self, index: int, t: int) -> tuple[int | None, float, None]:
        """A session's next local event is its next REDUCE or the first
        push after which TEST fires."""
        channels = self.sessions[index].channels
        return self._reductions[index].next_due(), self._limit(channels), None

    def local_event(self, t: int, index: int, bits: float) -> bool:
        """Fire the session's due REDUCEs; if TEST fires once ``bits`` are
        pushed, push them and run it."""
        self._reductions[index].fire_due(t)
        if not self._grows(self.sessions[index].channels, bits):
            return False
        self.sessions[index].push(t, bits)
        self._test(t, index)
        return True

    # -- the slot step ---------------------------------------------------------

    def step(self, t: int, arrivals: Sequence[float]) -> list[float]:
        for bits in arrivals:  # before anything changes
            check_arrival(bits)
        self.begin_slot(t)
        for events in self._reductions:
            events.fire_due(t)
        for index, bits in enumerate(arrivals):
            if bits <= 0:
                continue
            self.sessions[index].push(t, bits)
            if self._test(t, index):
                # Regular channel blew past 2·B_O: flush everything and
                # restart the stage immediately.
                for other in range(self.k):
                    self._spill(t, other)
                self._reset(t, initial=False)
        return self._serve_sessions(t)

    # -- diagnostics -------------------------------------------------------------

    @property
    def pending_reductions(self) -> int:
        """Outstanding REDUCE timers (diagnostics)."""
        return sum(len(events) for events in self._reductions)
