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

from typing import Sequence

from repro.core.allocator import MultiSessionPolicy
from repro.errors import ConfigError
from repro.network.queue import EPSILON, ServeResult
from repro.obs.runtime import count as obs_count


class PhasedMultiSession(MultiSessionPolicy):
    """Figure 4: phase-driven shared-channel allocator.

    Args:
        k: number of sessions (``k >= 2`` in the paper; 1 is allowed and
            degenerates gracefully).
        offline_bandwidth: ``B_O`` — the comparator's total bandwidth.
        offline_delay: ``D_O`` — the comparator's delay bound; also the
            phase length.
        fifo: serve each session FIFO with its pooled bandwidth.
    """

    def __init__(
        self,
        k: int,
        offline_bandwidth: float,
        offline_delay: int,
        fifo: bool = False,
    ):
        super().__init__(k=k, fifo=fifo)
        if offline_bandwidth <= 0:
            raise ConfigError(
                f"offline_bandwidth must be > 0, got {offline_bandwidth!r}"
            )
        if offline_delay < 1:
            raise ConfigError(f"offline_delay must be >= 1, got {offline_delay!r}")
        self.offline_bandwidth = float(offline_bandwidth)
        self.offline_delay = int(offline_delay)
        self.online_delay = 2 * self.offline_delay
        self.max_bandwidth = 4.0 * self.offline_bandwidth
        self.quantum = self.offline_bandwidth / self.k
        self.regular_cap = 2.0 * self.offline_bandwidth
        #: Slots at which phase-end processing ran (diagnostics).
        self.phase_boundaries: list[int] = []
        self._next_boundary: int | None = None
        self._started = False

    # -- stage machinery ---------------------------------------------------

    def _reset(self, t: int, initial: bool) -> None:
        """RESET: restart every regular allocation at ``B_O / k``."""
        for session in self.sessions:
            session.channels.regular_link.set(t, self.quantum)
        if not initial:
            self.resets.append(t)
            obs_count("core.phased.resets")
        self.stage_starts.append(t)
        obs_count("core.phased.stage_starts")
        self._next_boundary = t + self.offline_delay

    def _flush_all_to_overflow(self, t: int) -> None:
        """Move every regular queue to overflow, sized to drain in D_O."""
        for session in self.sessions:
            channels = session.channels
            channels.move_regular_to_overflow()
            channels.overflow_link.set(
                t, channels.overflow_queue.size / self.offline_delay
            )

    def _phase_end(self, t: int) -> None:
        """Figure 4's PHASE block, run at the start of a boundary slot."""
        self.phase_boundaries.append(t)
        obs_count("core.phased.phase_ends")
        total_regular = 0.0
        for session in self.sessions:
            channels = session.channels
            regular = channels.regular_link
            if channels.regular_queue.size <= regular.bandwidth * self.offline_delay + EPSILON:
                # Kept up: the overflow queue has drained (Claim 8).
                channels.overflow_link.set(t, 0.0)
            else:
                regular.set(t, regular.bandwidth + self.quantum)
                channels.move_regular_to_overflow()
                channels.overflow_link.set(
                    t, channels.overflow_queue.size / self.offline_delay
                )
            total_regular += regular.bandwidth
        if total_regular > self.regular_cap + EPSILON:
            # Stage over: the offline algorithm used more than B_O total or
            # changed an allocation (Lemma 13).
            self._flush_all_to_overflow(t)
            self._reset(t, initial=False)
        else:
            self._next_boundary = t + self.offline_delay

    # -- hooks for the combined algorithm (§4) --------------------------------

    def restart_stage(self, t: int, offline_bandwidth: float) -> None:
        """End the local stage and restart with a new ``B_O`` (§4).

        The combined algorithm re-parameterizes the inner multi-session
        loop every time its global bandwidth estimate moves: flush every
        regular queue to the overflow channel (sized to drain in ``D_O``)
        and restart the regular allocations at the new ``B_O / k``.
        """
        if offline_bandwidth <= 0:
            raise ConfigError(
                f"offline_bandwidth must be > 0, got {offline_bandwidth!r}"
            )
        self._started = True
        self.offline_bandwidth = float(offline_bandwidth)
        self.quantum = self.offline_bandwidth / self.k
        self.regular_cap = 2.0 * self.offline_bandwidth
        self.max_bandwidth = 4.0 * self.offline_bandwidth
        self._flush_all_to_overflow(t)
        self._reset(t, initial=False)

    def cancel_overflow(self, t: int) -> None:
        """Zero every overflow allocation (queues were stolen by a
        GLOBAL RESET; the matching bits now live in the global channel)."""
        for session in self.sessions:
            session.channels.overflow_link.set(t, 0.0)

    # -- event boundary (read by the vectorized engine) ----------------------

    @property
    def next_boundary(self) -> int | None:
        """Slot of the next phase-end event (None before the first step)."""
        return self._next_boundary

    # -- the slot step -------------------------------------------------------

    def begin_slot(self, t: int) -> None:
        """Start-up and phase-end processing at the start of slot ``t``.

        The first half of :meth:`step`; the rest is queue work at the
        allocations this leaves, which the vectorized engine replays in
        bulk up to :attr:`next_boundary`.
        """
        if not self._started:
            self._started = True
            self._reset(t, initial=True)
        if self._next_boundary is not None and t >= self._next_boundary:
            self._phase_end(t)

    def step(self, t: int, arrivals: Sequence[float]) -> list[ServeResult]:
        self.begin_slot(t)
        for session, bits in zip(self.sessions, arrivals):
            if bits > 0:
                session.push(t, bits)
        results = []
        for session in self.sessions:
            result = session.channels.serve(t, fifo=self.fifo)
            session.account(result)
            results.append(result)
        return results

    # -- diagnostics ---------------------------------------------------------

    @property
    def total_regular(self) -> float:
        return sum(s.channels.regular_link.bandwidth for s in self.sessions)

    @property
    def total_overflow(self) -> float:
        return sum(s.channels.overflow_link.bandwidth for s in self.sessions)
