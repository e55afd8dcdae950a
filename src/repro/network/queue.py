"""FIFO bit queue with arrival stamps and delay accounting.

The paper's model is fluid: a slot may carry a fractional number of bits.
The queue therefore stores *chunks* — (arrival slot, bits) pairs — served in
FIFO order; serving may split a chunk.  Every delivery folds the delay of
the served bits into a delay histogram, which feeds the latency metrics,
and chunks can be moved wholesale between queues (the multi-session
algorithms re-parent bits from regular to overflow queues while preserving
arrival stamps).

:func:`serve_fifo` is the one FIFO serve loop: :meth:`BitQueue.serve`,
:func:`replay_fifo` and the channel pair of :mod:`repro.network.channel`
all serve through it.  :func:`replay_fifo` is the one replay loop: it
pushes and serves a regular queue, and optionally an overflow queue, for
a run of slots at the per-slot float operations, which is the queue work
of every engine slice (:mod:`repro.sim.vector`) and of
:func:`~repro.analysis.feasibility.simulate_fifo_delay`.  Its slot loop
is pure Python: a slot that keeps up with its arrivals does only that,
and a busy slot pushes, serves once per non-empty queue and runs only
the stop tests that can fire there.
"""

from __future__ import annotations

import math
from collections import deque
from itertools import repeat
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.errors import ConfigError, SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.network.session import Session

#: Bits below this threshold are treated as zero (floating-point dust).
EPSILON = 1e-9


def serve_fifo(
    chunks: deque, size: float, slot: int, remaining: float, histogram: dict[int, float]
) -> tuple[float, float]:
    """Serve up to ``remaining`` bits of a queue's raw ``chunks`` FIFO
    during ``slot``, folding each take into ``histogram`` (delay -> bits)
    in delivery order.

    Returns ``(bits served, new size)``.  Serving runs down to exact-zero
    remaining capacity: refusing sub-epsilon capacities while the queue
    holds sub-epsilon residue would trap geometric-decay policies short of
    draining (a Zeno stall).  Popping a chunk may leave up to EPSILON of
    untracked size behind (a take can undershoot the chunk by EPSILON), so
    once no chunks remain the size is zeroed, and a size below EPSILON
    clears the chunks: otherwise the queue would report non-empty forever
    and drain loops would stall.
    """
    served = 0.0
    while remaining > 0.0 and chunks:
        chunk = chunks[0]
        arrival, queued = chunk
        take = queued if queued <= remaining else remaining
        delay = slot - arrival
        histogram[delay] = histogram.get(delay, 0.0) + take
        served += take
        remaining -= take
        size -= take
        if take >= queued - EPSILON:
            chunks.popleft()
        else:
            chunk[1] = queued - take
    if not chunks:
        return served, 0.0
    if size < EPSILON:
        chunks.clear()
        return served, 0.0
    return served, size


class BitQueue:
    """FIFO queue of arrival-stamped bit chunks.

    With ``capacity=None`` (the paper's model: "queues ... large enough")
    the queue is unbounded.  A finite ``capacity`` enables the data-loss
    extension: arriving bits beyond the capacity are tail-dropped and
    accounted in :attr:`dropped`.
    """

    def __init__(self, name: str = "", capacity: float | None = None):
        if capacity is not None and capacity < 0:
            raise ConfigError(f"capacity must be >= 0, got {capacity!r}")
        self.name = name
        self.capacity = float(capacity) if capacity is not None else None
        #: Total bits tail-dropped since construction.
        self.dropped = 0.0
        self._chunks: deque[list] = deque()  # each chunk is [arrival, bits]
        self._size = 0.0

    def __repr__(self) -> str:
        return f"BitQueue(name={self.name!r}, size={self._size:.3f})"

    @property
    def size(self) -> float:
        """Bits currently queued."""
        return self._size if self._size > EPSILON else 0.0

    @property
    def is_empty(self) -> bool:
        return self._size <= EPSILON

    @property
    def oldest_arrival(self) -> int | None:
        """Arrival slot of the head-of-line bits (None when empty)."""
        if self.is_empty:
            return None
        return self._chunks[0][0]

    def push(self, t: int, bits: float) -> float:
        """Enqueue ``bits`` arriving at slot ``t``; return bits dropped.

        With a finite capacity, bits that would overflow are tail-dropped
        (the newest bits are lost, as in a real ingress buffer).
        """
        if not bits >= 0:  # NaN fails it too
            raise ConfigError(f"bits must be >= 0, got {bits!r}")
        if bits <= EPSILON:
            return 0.0
        lost = 0.0
        if self.capacity is not None:
            room = self.capacity - self._size
            if bits > room:
                lost = bits - max(0.0, room)
                self.dropped += lost
                bits -= lost
                if bits <= EPSILON:
                    return lost
        if self._chunks and self._chunks[-1][0] == t:
            self._chunks[-1][1] += bits
        else:
            if self._chunks and self._chunks[-1][0] > t:
                raise SimulationError(
                    f"push at t={t} after chunk stamped {self._chunks[-1][0]}"
                )
            self._chunks.append([t, bits])
        self._size += bits
        return lost

    def serve(self, t: int, capacity: float, histogram: dict[int, float]) -> float:
        """Serve up to ``capacity`` bits FIFO during slot ``t``, folding each
        delivery into ``histogram`` (delay -> bits); return the bits served."""
        if not capacity >= 0:  # NaN fails it too
            raise ConfigError(f"capacity must be >= 0, got {capacity!r}")
        served, self._size = serve_fifo(self._chunks, self._size, t, capacity, histogram)
        return served

    def drain_to(self, other: "BitQueue") -> float:
        """Move all chunks to ``other`` preserving arrival order; return bits.

        The destination's newest chunk must not be newer than our oldest —
        true for the paper's algorithms, which always drain the younger
        regular queue into the older overflow queue after the overflow queue
        emptied or in arrival order.
        """
        moved = self._size
        for arrival, bits in self._chunks:
            other.push(arrival, bits)
        self._chunks.clear()
        self._size = 0.0
        return moved

    def max_age(self, t: int) -> int:
        """Age in slots of the oldest queued bit (0 when empty)."""
        oldest = self.oldest_arrival
        if oldest is None:
            return 0
        return t - oldest


def replay_fifo(
    t: int,
    arrivals: Sequence[float] | np.ndarray,
    queue: BitQueue,
    capacity: float | np.ndarray,
    histogram: dict[int, float],
    *,
    overflow: BitQueue | None = None,
    overflow_capacity: float | None = None,
    session: "Session | None" = None,
    until_empty: bool = False,
    limit: float = math.inf,
    phase: tuple[int, int] | None = None,
) -> tuple[list[float], list[float]]:
    """Push, then serve, slots ``t, t+1, ...`` of a regular ``queue`` and
    an optional ``overflow`` queue: the one fused replay loop.

    Slot ``t + i`` pushes ``arrivals[i]`` into ``queue`` and serves it with
    ``capacity`` (a float for every slot, or an array as long as
    ``arrivals``).  With an ``overflow`` queue, each slot serves it first
    (its bits are older): with its own ``overflow_capacity`` (the proofs'
    literal mode), or, when that is None, out of ``capacity``, leaving the
    regular queue what it does not take (FIFO mode, the Remark after
    Theorem 14).  The float operations are those of
    :meth:`BitQueue.push` and :func:`serve_fifo`, slot by slot, in the
    per-slot order: every delivery folds into ``histogram`` (delay ->
    bits), overflow first.  With a ``session``, its ``bits_arrived``,
    ``bits_delivered`` and ``max_delay`` are current when the call returns,
    as :meth:`Session.push <repro.network.session.Session.push>` and
    :meth:`SessionChannels.serve
    <repro.network.channel.SessionChannels.serve>` leave them.

    The replay stops early, and the lists returned are then shorter than
    ``arrivals``:

    * ``until_empty``: at once if ``queue`` holds at most ``EPSILON``,
      else after the first slot whose serve leaves it at most ``EPSILON``
      (the single-session RESET drain);
    * ``phase=(first, period)``: before the push at the first of slots
      ``first + m * period`` (``m >= 0``; Figure 4's phase ends) that finds
      ``queue`` above ``limit``;
    * otherwise a finite ``limit``: before the first positive push that
      would leave ``queue`` above it (Figure 5's TEST; a push of dust,
      which is not queued, leaves ``queue`` as it is).

    A slot *keeps up* when both queues are empty and its arrivals are at
    or below its capacity (and, for the TEST, ``limit``): it delivers
    them at delay 0 (dust: nothing) and leaves the queues empty, and no
    stop can fire there (a phase end finds the queue empty; the TEST
    finds it at most ``limit`` after the push).  A run of such slots adds
    its arrivals to the delay-0 bin in a local, in slot order, and stores
    the bin once, before the next serve.  A busy slot runs only the stop
    tests that can fire: the phase end only when ``queue`` is above
    ``limit`` before the push.  The session's ``bits_arrived`` and
    ``bits_delivered`` are folded once, after the loop, slot by slot: a
    dust slot adds ``+0.0``, which leaves the non-negative sums as they
    are.

    ``arrivals`` and the capacities must be non-negative and not NaN (a
    NaN would slip through every test above); the engine validates them
    when it takes them in, :func:`~repro.analysis.feasibility.simulate_fifo_delay`
    at its boundary.

    Returns:
        ``(delivered, backlog)``: bits served and the bits queued in both
        queues (each :attr:`BitQueue.size`) after each replayed slot.
    """
    if queue.capacity is not None or (overflow is not None and overflow.capacity is not None):
        raise ConfigError("replay needs an unbounded queue")
    arrivals = np.asarray(arrivals, dtype=float)
    values = arrivals.tolist()
    if isinstance(capacity, (int, float)):
        caps = repeat(float(capacity))
    else:
        capacity = np.asarray(capacity, dtype=float)
        if capacity.shape != arrivals.shape:
            raise ConfigError("arrivals and capacities must have equal length")
        caps = capacity.tolist()
    pooled = overflow_capacity is None
    # The stop thresholds: a phase end stops above ``ends``, the TEST past
    # ``cut`` and the drain at or below ``dry``.  Unused, they are math.inf
    # and -1.0, which no backlog reaches.
    ends = cut = math.inf
    dry = -1.0
    if phase is not None:
        ends = limit
        first, period = phase
    else:
        cut = limit
    if until_empty:
        dry = EPSILON
        if queue._size <= EPSILON:
            values = []
    r_chunks = queue._chunks
    r_size = queue._size
    o_chunks = overflow._chunks if overflow is not None else deque()
    o_size = overflow._size if overflow is not None else 0.0
    track = session is not None  # only a session keeps max_delay
    worst = session.max_delay if track else 0
    delivered: list[float] = []
    backlog: list[float] = []
    zero = None  # the delay-0 bin while a keep-up run folds into it
    try:
        for bits, cap in zip(values, caps):
            if not r_chunks and not o_chunks and bits <= cap and bits <= cut:
                # Keep-up: the arrivals go out at delay 0 (dust: nothing).
                if bits > EPSILON:
                    if zero is None:
                        zero = histogram.get(0, 0.0)
                    zero += bits
                    delivered.append(bits)
                else:
                    delivered.append(0.0)
                backlog.append(0.0)
                continue
            if zero is not None:
                histogram[0] = zero
                zero = None
            slot = t + len(delivered)  # only a busy slot needs its number
            if r_size > ends and (slot - first) % period == 0 and slot >= first:
                break  # Figure 4's phase end reads the queue before the push
            if bits > EPSILON:  # BitQueue.push
                if r_size + bits > cut:
                    break  # Figure 5's TEST
                if r_chunks and r_chunks[-1][0] >= slot:
                    if r_chunks[-1][0] > slot:
                        raise SimulationError(
                            f"push at t={slot} after chunk stamped {r_chunks[-1][0]}"
                        )
                    r_chunks[-1][1] += bits
                else:
                    r_chunks.append([slot, bits])
                r_size += bits
            elif bits > 0.0 and r_size > cut:
                break  # dust is not queued, but TEST still reads the queue
            remaining = cap
            served = 0.0
            if o_chunks:  # the overflow queue's older bits go first
                share = remaining if pooled else overflow_capacity
                if track and share > 0.0 and slot - o_chunks[0][0] > worst:
                    worst = slot - o_chunks[0][0]
                served, o_size = serve_fifo(o_chunks, o_size, slot, share, histogram)
                if pooled:  # float dust must not push the rest below zero
                    remaining = max(0.0, remaining - served)
            if r_chunks:
                if track and remaining > 0.0 and slot - r_chunks[0][0] > worst:
                    worst = slot - r_chunks[0][0]
                second, r_size = serve_fifo(r_chunks, r_size, slot, remaining, histogram)
                served += second
            delivered.append(served)
            after = r_size if r_size > EPSILON else 0.0
            backlog.append(after + o_size if o_size > EPSILON else after)
            if r_size <= dry:
                break  # the RESET drain: the next slot would find it drained
    finally:
        if zero is not None:
            histogram[0] = zero
        queue._size = r_size
        if overflow is not None:
            overflow._size = o_size
        if track:
            # Session.push and SessionChannels.serve, folded in slot order.
            arrived = session.bits_arrived
            for bits in values if len(values) == len(delivered) else values[: len(delivered)]:
                arrived += bits
            total = session.bits_delivered
            for served in delivered:
                total += served
            session.bits_arrived = arrived
            session.bits_delivered = total
            session.max_delay = worst
    return delivered, backlog
