"""The phased multi-session algorithm of Figure 4 (Section 3.1).

``k`` sessions share a channel.  Total online bandwidth ``B_A = 4·B_O``,
split into a *regular* channel (≤ ``2·B_O``, allocated in quanta of
``B_O/k``) and an *overflow* channel (≤ ``2·B_O``, Lemma 10).  Time is cut
into phases of ``D_O`` slots, counted from the last RESET:

* At a phase end, any session whose regular queue outgrew its regular
  allocation (``|Q_i^r| > B_i^r · D_O``) gets ``B_O/k`` more regular
  bandwidth; its queue is moved wholesale to the overflow channel, which is
  given exactly enough bandwidth (``|Q_i^o| / D_O``) to drain it within the
  next phase.  Sessions that kept up get their overflow allocation zeroed
  (the overflow queue is provably empty then).
* When the regular channel exceeds ``2·B_O`` the stage ends: every queue is
  flushed to the overflow channel and a RESET restarts all regular
  allocations at ``B_O/k``.  Any offline ``(B_O, D_O)``-algorithm must have
  changed some session's bandwidth during the stage (Lemma 13).

Guarantees (Theorem 14): delay ≤ ``2·D_O`` (Lemma 11), total bandwidth
≤ ``4·B_O``, and at most ``3k`` online changes per stage.

Service discipline: ``fifo=False`` (default) serves each queue with its own
channel as the proofs assume; ``fifo=True`` serves each session's bits in
arrival order with the session's total bandwidth (the Remark after
Theorem 14 — worst-case delay is unchanged, which the tests verify).
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.core.allocator import RegularOverflowPolicy, check_arrival
from repro.network.channel import SessionChannels
from repro.obs.runtime import count as obs_count


class PhasedMultiSession(RegularOverflowPolicy):
    """Figure 4: phase-driven shared-channel allocator.

    Args:
        k: number of sessions (``k >= 2`` in the paper; 1 is allowed and
            degenerates gracefully).
        offline_bandwidth: ``B_O`` — the comparator's total bandwidth.
        offline_delay: ``D_O`` — the comparator's delay bound; also the
            phase length.
        fifo: serve each session FIFO with its pooled bandwidth.
    """

    _counters = "core.phased"

    def __init__(
        self,
        k: int,
        offline_bandwidth: float,
        offline_delay: int,
        fifo: bool = False,
    ):
        super().__init__(k, offline_bandwidth, offline_delay, fifo, scale=4.0)
        #: Slots at which phase-end processing ran (diagnostics).
        self.phase_boundaries: list[int] = []
        self._next_boundary: int | None = None

    # -- stage machinery ---------------------------------------------------

    def _reset(self, t: int, initial: bool) -> None:
        """RESET: restart every regular allocation at ``B_O / k`` and the
        phase clock."""
        super()._reset(t, initial)
        self._next_boundary = t + self.offline_delay

    def _flush_all_to_overflow(self, t: int) -> None:
        """Move every regular queue to overflow, sized to drain in D_O."""
        for session in self.sessions:
            channels = session.channels
            channels.move_regular_to_overflow()
            channels.overflow_link.set(
                t, channels.overflow_queue.size / self.offline_delay
            )

    def _grows(self, channels: SessionChannels, bits: float = 0.0) -> bool:
        """Figure 4's test, read at the start of a phase-end slot."""
        return channels.regular_queue.size > self._limit(channels)

    def _session_phase_end(self, t: int, channels: SessionChannels) -> None:
        """Figure 4's PHASE block for one session (the per-session rule)."""
        if not self._grows(channels):
            # Kept up: the overflow queue has drained (Claim 8).
            channels.overflow_link.set(t, 0.0)
        else:
            regular = channels.regular_link
            regular.set(t, regular.bandwidth + self.quantum)
            channels.move_regular_to_overflow()
            channels.overflow_link.set(
                t, channels.overflow_queue.size / self.offline_delay
            )

    def _phase_end(self, t: int) -> None:
        """Figure 4's PHASE block, run at the start of a boundary slot."""
        self.book(t, t + 1)
        for session in self.sessions:
            self._session_phase_end(t, session.channels)
        if self._stage_over():
            # Stage over: the offline algorithm used more than B_O total or
            # changed an allocation (Lemma 13).
            self._flush_all_to_overflow(t)
            self._reset(t, initial=False)

    # -- hooks for the combined algorithm (§4) --------------------------------

    def restart_stage(self, t: int, offline_bandwidth: float) -> None:
        """End the local stage and restart with a new ``B_O`` (§4).

        The combined algorithm re-parameterizes the inner multi-session
        loop every time its global bandwidth estimate moves: flush every
        regular queue to the overflow channel (sized to drain in ``D_O``)
        and restart the regular allocations at the new ``B_O / k``.
        """
        self._parameterize(offline_bandwidth)
        self._started = True
        self._flush_all_to_overflow(t)
        self._reset(t, initial=False)

    def cancel_overflow(self, t: int) -> None:
        """Zero every overflow allocation (queues were stolen by a
        GLOBAL RESET; the matching bits now live in the global channel)."""
        for session in self.sessions:
            session.channels.overflow_link.set(t, 0.0)

    # -- the session-major slice protocol (repro.sim.vector) -----------------

    def watch(self, index: int, t: int) -> tuple[int | None, float, tuple[int, int] | None]:
        """A session's next local event is a phase end that is not a no-op
        for it: one that clears (or resizes) a non-zero overflow
        allocation, or one whose start finds the regular queue above
        ``B_i^r·D_O``."""
        channels = self.sessions[index].channels
        period = self.offline_delay
        first = self._next_boundary
        if first < t:
            first += (t - first + period - 1) // period * period
        if channels.overflow_link.bandwidth != 0.0:
            return first, math.inf, None
        return None, self._limit(channels), (first, period)

    def local_event(self, t: int, index: int, bits: float) -> bool:
        self._session_phase_end(t, self.sessions[index].channels)
        return False

    def book(self, t: int, stop: int) -> None:
        """Book the phase ends in ``[t, stop)``: each goes on
        :attr:`phase_boundaries` and counts as ``core.phased.phase_ends``,
        and the phase clock moves past them.  The engine's slices run
        only the session rules that are not no-ops and book the phase ends
        here, in bulk."""
        first = self._next_boundary
        if first is None or first >= stop:
            return
        ends = range(first, stop, self.offline_delay)
        self.phase_boundaries.extend(ends)
        obs_count("core.phased.phase_ends", float(len(ends)))
        self._next_boundary = ends[-1] + self.offline_delay

    # -- the slot step -------------------------------------------------------

    def step(self, t: int, arrivals: Sequence[float]) -> list[float]:
        for bits in arrivals:  # before anything changes
            check_arrival(bits)
        self.begin_slot(t)
        if t >= self._next_boundary:
            self._phase_end(t)
        for session, bits in zip(self.sessions, arrivals):
            if bits > 0:
                session.push(t, bits)
        return self._serve_sessions(t)
