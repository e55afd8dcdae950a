"""Regular/overflow channel pair used by the multi-session algorithms.

Sections 3.1 and 3.2 split each session's bandwidth into a *regular* channel
(steady allocation, incremented in steps of ``B_O / k``) and an *overflow*
channel (bursts moved out of the regular queue, drained within ``D_O``
slots).  :class:`SessionChannels` bundles the two queues and the two links
and implements the service disciplines:

* literal mode — each queue is served by its own channel's bandwidth
  (what the proofs analyze);
* FIFO mode — the session's total bandwidth first drains the overflow queue
  (whose bits are older) and then the regular queue, which serves bits in
  exact arrival order (the Remark after Theorem 14).

Both queues serve through :func:`~repro.network.queue.serve_fifo`, which
folds every delivery into the owning :class:`~repro.network.session.Session`'s
delay histogram.  :meth:`SessionChannels.serve` runs one slot;
:meth:`SessionChannels.replay` runs a session's slots up to its next
allocation event in one fused loop: the multi-session engine's
session-major slices (:mod:`repro.sim.vector`).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.network.link import Link
from repro.network.queue import EPSILON, KEEPUP_RUN, BitQueue, serve_fifo

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.network.session import Session


class SessionChannels:
    """One session's regular + overflow queues and links."""

    def __init__(self, index: int):
        self.index = index
        self.regular_queue = BitQueue(f"s{index}.regular.q")
        self.overflow_queue = BitQueue(f"s{index}.overflow.q")
        self.regular_link = Link(f"s{index}.regular")
        self.overflow_link = Link(f"s{index}.overflow")
        #: Effective-capacity multiplier for this slot (fault injection).
        #: The engine sets it from the active FaultPlan; 1.0 = healthy link.
        #: Allocation (and its change accounting) is unaffected — only the
        #: bits actually served this slot are scaled.
        self.capacity_factor = 1.0

    def __repr__(self) -> str:
        return (
            f"SessionChannels(i={self.index}, "
            f"Br={self.regular_link.bandwidth:.3f}, "
            f"Bo={self.overflow_link.bandwidth:.3f}, "
            f"Qr={self.regular_queue.size:.3f}, "
            f"Qo={self.overflow_queue.size:.3f})"
        )

    # -- state ----------------------------------------------------------

    @property
    def total_bandwidth(self) -> float:
        """``B_i = B_i^r + B_i^o``."""
        return self.regular_link.bandwidth + self.overflow_link.bandwidth

    @property
    def total_queued(self) -> float:
        """``|Q_i| = |Q_i^r| + |Q_i^o|``."""
        return self.regular_queue.size + self.overflow_queue.size

    @property
    def change_count(self) -> int:
        """Bandwidth changes on both channels combined."""
        return self.regular_link.change_count + self.overflow_link.change_count

    # -- operations -----------------------------------------------------

    def push(self, t: int, bits: float) -> None:
        """New arrivals always enter the regular queue."""
        self.regular_queue.push(t, bits)

    def move_regular_to_overflow(self) -> float:
        """Move ``Q_i^r`` wholesale into ``Q_i^o``; return the bits moved."""
        return self.regular_queue.drain_to(self.overflow_queue)

    def serve(self, t: int, fifo: bool, session: "Session") -> float:
        """Serve one slot for ``session``, overflow queue first, each queue
        with :func:`serve_for`; add the bits served to its
        ``bits_delivered`` and return them."""
        factor = self.capacity_factor
        if fifo:
            pooled = self.total_bandwidth * factor
            served = serve_for(session, self.overflow_queue, t, pooled)
            # Guard against float dust pushing the remainder below zero.
            served += serve_for(session, self.regular_queue, t, max(0.0, pooled - served))
        else:
            served = serve_for(session, self.overflow_queue, t, self.overflow_link.bandwidth * factor)
            served += serve_for(session, self.regular_queue, t, self.regular_link.bandwidth * factor)
        session.bits_delivered += served
        return served

    def max_age(self, t: int) -> int:
        """Age of the oldest bit queued in either channel."""
        return max(self.regular_queue.max_age(t), self.overflow_queue.max_age(t))

    def replay(
        self,
        t: int,
        arrivals: Sequence[float] | np.ndarray,
        fifo: bool,
        session: "Session",
        limit: float = math.inf,
        phase: tuple[int, int] | None = None,
    ) -> tuple[list[float], list[float]]:
        """Run ``Session.push`` and :meth:`serve` for slots ``t, t+1, ...``
        at the current bandwidths, up to the session's next local event.

        Slot ``t + i`` takes ``arrivals[i]``.  The float operations are the
        per-slot methods', in the same order: each slot's deliveries fold
        into ``session``'s delay histogram overflow first, then regular,
        and its ``bits_arrived``, ``bits_delivered`` and ``max_delay`` are
        current when the call returns.

        The replay stops before the first slot at which the regular queue
        holds more than ``limit`` bits: with ``phase=(first, period)`` the
        queue is read at the start of slots ``first + m * period`` (Figure
        4's phase ends), otherwise right after each positive push (Figure
        5's TEST, read without pushing).  The lists returned are then
        shorter than ``arrivals``.

        While both queues are empty and a slot's arrivals are at or below
        the keep-up capacity (and, for the push test, ``limit``), the slot
        delivers its own arrivals at delay 0 (dust: nothing) and leaves the
        queues empty.  Stretches of at least :data:`KEEPUP_RUN` such slots
        are committed with numpy (``np.add.accumulate`` sums in slot order,
        like the per-slot fold); shorter runs and backlogged slots take the
        pure-Python loop.  A stretch can start only where the replay starts
        or where a slot leaves both queues empty, so only there does the
        loop look for one.

        Returns:
            ``(delivered, backlog)``: the session's bits served and
            :attr:`Session.backlog <repro.network.session.Session.backlog>`
            after each replayed slot.
        """
        factor = self.capacity_factor
        if fifo:
            pooled = self.total_bandwidth * factor
        else:
            overflow_capacity = self.overflow_link.bandwidth * factor
            regular_capacity = self.regular_link.bandwidth * factor
        keepup = pooled if fifo else regular_capacity
        # An empty session keeps up with arrivals up to the gate: they fit
        # the capacity and the TEST cannot fire.
        gate = keepup
        due = -1  # index of the next phase end to read (-1: none)
        period = 0
        pushtest = False
        if phase is not None:
            due = phase[0] - t
            period = phase[1]
        elif limit < math.inf:
            pushtest = True
            gate = min(keepup, limit)
        values = arrivals.tolist() if isinstance(arrivals, np.ndarray) else arrivals
        n = len(values)
        # Slots above the gate, then a sentinel: a keep-up stretch from
        # empty queues runs to the next of them.  ``retry`` is the first
        # slot worth another look for one.
        if n >= KEEPUP_RUN:
            loud = np.flatnonzero(np.asarray(arrivals, dtype=float) > gate).tolist()
            loud.append(n)
            j = 0  # index into loud
            retry = 0
        else:
            retry = n + 1  # no stretch fits
        regular = self.regular_queue
        overflow = self.overflow_queue
        r_chunks = regular._chunks
        o_chunks = overflow._chunks
        r_size = regular._size
        o_size = overflow._size
        histogram = session.histogram
        arrived = session.bits_arrived
        total = session.bits_delivered
        worst = session.max_delay
        delivered: list[float] = []
        backlog: list[float] = []
        i = 0  # next slot (index into arrivals)
        try:
            while i < n:
                if i >= retry and not r_chunks and not o_chunks:
                    while loud[j] < i:
                        j += 1
                    retry = loud[j]
                    if retry - i >= KEEPUP_RUN:
                        quiet = np.asarray(arrivals[i:retry], dtype=float)
                        served = np.where(quiet > EPSILON, quiet, 0.0)
                        # Adding 0.0 leaves a sum unchanged, so one
                        # column-wise running sum folds what the slots
                        # below fold one by one.
                        sums = np.empty((retry - i + 1, 3))
                        sums[0] = (arrived, total, histogram.get(0, 0.0))
                        sums[1:, 0] = quiet
                        sums[1:, 1] = served
                        sums[1:, 2] = served
                        arrived, total, first = np.add.accumulate(sums)[-1].tolist()
                        if served.any():
                            histogram[0] = first
                        delivered += served.tolist()
                        backlog += [0.0] * (retry - i)
                        if 0 <= due < retry:
                            due += (retry - due + period - 1) // period * period
                        i = retry
                        continue
                for i in range(i, n):
                    bits = values[i]
                    if not r_chunks and not o_chunks and bits <= gate:
                        # The arrivals go out at delay 0 (dust: nothing) and
                        # the queues stay empty; a phase end finds the
                        # regular queue empty.
                        if i == due:
                            due += period
                        arrived += bits
                        if bits > EPSILON:
                            histogram[0] = histogram.get(0, 0.0) + bits
                            total += bits
                            delivered.append(bits)
                        else:
                            delivered.append(0.0)
                        backlog.append(0.0)
                        continue
                    if i == due:  # Figure 4's phase end reads the queue first
                        if r_size > limit:
                            return delivered, backlog
                        due += period
                    elif pushtest and bits > 0 and (r_size + bits if bits > EPSILON else r_size) > limit:
                        return delivered, backlog
                    slot = t + i
                    arrived += bits  # Session.push (adding 0.0 changes nothing)
                    if bits > EPSILON:  # BitQueue.push
                        if r_chunks and r_chunks[-1][0] == slot:
                            r_chunks[-1][1] += bits
                        else:
                            r_chunks.append([slot, bits])
                        r_size += bits
                    served = 0.0  # overflow queue: older bits go first
                    if o_chunks:
                        remaining = pooled if fifo else overflow_capacity
                        if remaining > 0.0 and slot - o_chunks[0][0] > worst:
                            worst = slot - o_chunks[0][0]
                        served, o_size = serve_fifo(o_chunks, o_size, slot, remaining, histogram)
                    second = 0.0  # then the regular queue
                    if r_chunks:
                        remaining = max(0.0, pooled - served) if fifo else regular_capacity
                        if remaining > 0.0 and slot - r_chunks[0][0] > worst:
                            worst = slot - r_chunks[0][0]
                        second, r_size = serve_fifo(r_chunks, r_size, slot, remaining, histogram)
                    served += second
                    total += served
                    delivered.append(served)
                    backlog.append(
                        (r_size if r_size > EPSILON else 0.0)
                        + (o_size if o_size > EPSILON else 0.0)
                    )
                    if not r_chunks and not o_chunks and i + 1 >= retry:
                        # Emptied: a keep-up stretch may start at the next
                        # slot; the outer loop commits it.
                        while loud[j] <= i:
                            j += 1
                        retry = loud[j]
                        if retry - i > KEEPUP_RUN:
                            i += 1
                            retry = i
                            break
                else:
                    break
        finally:
            regular._size = r_size
            overflow._size = o_size
            session.bits_arrived = arrived
            session.bits_delivered = total
            session.max_delay = worst
        return delivered, backlog


def serve_for(session: "Session", queue: BitQueue, slot: int, capacity: float) -> float:
    """Serve ``queue`` during ``slot`` on behalf of ``session``; return the bits.

    Each delivery folds into ``session``'s delay histogram, and its
    ``max_delay`` takes the head-of-queue delay when the queue has bits
    and ``capacity > 0``.  The caller adds the bits to ``bits_delivered``.
    """
    chunks = queue._chunks
    if chunks and capacity > 0.0 and slot - chunks[0][0] > session.max_delay:
        session.max_delay = slot - chunks[0][0]
    served, queue._size = serve_fifo(chunks, queue._size, slot, capacity, session.histogram)
    return served
