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
delay histogram.  :meth:`SessionChannels.serve` runs one slot; the
multi-session engine's session-major slices (:mod:`repro.sim.vector`)
replay a session's slots up to its next allocation event with
:func:`~repro.network.queue.replay_fifo`, at the capacities
:meth:`SessionChannels.capacities` gives.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.network.link import Link
from repro.network.queue import BitQueue, serve_fifo

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

    def capacities(self, fifo: bool) -> tuple[float, float | None]:
        """``(capacity, overflow_capacity)`` this slot, as
        :func:`~repro.network.queue.replay_fifo` takes them: in FIFO mode
        the pooled ``B_i`` and None (the overflow queue draws on the pool),
        in literal mode each channel's own bandwidth."""
        factor = self.capacity_factor
        if fifo:
            return self.total_bandwidth * factor, None
        return self.regular_link.bandwidth * factor, self.overflow_link.bandwidth * factor

    def serve(self, t: int, fifo: bool, session: "Session") -> float:
        """Serve one slot for ``session``, overflow queue first, each queue
        with :func:`serve_for`; add the bits served to its
        ``bits_delivered`` and return them."""
        capacity, overflow_capacity = self.capacities(fifo)
        if overflow_capacity is None:
            served = serve_for(session, self.overflow_queue, t, capacity)
            # Guard against float dust pushing the remainder below zero.
            served += serve_for(session, self.regular_queue, t, max(0.0, capacity - served))
        else:
            served = serve_for(session, self.overflow_queue, t, overflow_capacity)
            served += serve_for(session, self.regular_queue, t, capacity)
        session.bits_delivered += served
        return served

    def max_age(self, t: int) -> int:
        """Age of the oldest bit queued in either channel."""
        return max(self.regular_queue.max_age(t), self.overflow_queue.max_age(t))


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
