"""FIFO bit queue with arrival stamps and delay accounting.

The paper's model is fluid: a slot may carry a fractional number of bits.
The queue therefore stores *chunks* — (arrival slot, bits) pairs — served in
FIFO order; serving may split a chunk.  Every delivery folds the delay of
the served bits into a delay histogram, which feeds the latency metrics,
and chunks can be moved wholesale between queues (the multi-session
algorithms re-parent bits from regular to overflow queues while preserving
arrival stamps).

:func:`serve_fifo` is the one FIFO serve loop: :meth:`BitQueue.serve`,
:meth:`BitQueue.replay` and the channel pair of
:mod:`repro.network.channel` all serve through it.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.errors import ConfigError, SimulationError

#: Bits below this threshold are treated as zero (floating-point dust).
EPSILON = 1e-9

#: Shortest keep-up stretch :meth:`BitQueue.replay` commits with numpy;
#: shorter ones cost less per slot than the numpy calls.
KEEPUP_RUN = 32


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

    def replay(
        self,
        t: int,
        arrivals: np.ndarray,
        capacity: float | np.ndarray,
        histogram: dict[int, float],
        until_empty: bool = False,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Run :meth:`push` then :meth:`serve` for slots ``t, t+1, ...``.

        Slot ``t + i`` pushes ``arrivals[i]`` and serves ``capacity`` (a
        float for every slot, or an array as long as ``arrivals``) with the
        same float operations, in the same order, as the per-slot methods,
        folding each delivery into ``histogram`` (delay -> bits) in delivery
        order.

        While the queue is exactly empty and arrivals stay at or below the
        capacity, each slot delivers its own arrivals at delay 0 (dust
        delivers nothing) and leaves the queue exactly empty.  Stretches of
        at least :data:`KEEPUP_RUN` such slots are committed with numpy
        (``np.add.accumulate`` sums in slot order, like the per-slot fold).

        Args:
            t: slot of ``arrivals[0]``.
            arrivals: bits arriving per slot (1-D float array).
            capacity: serving capacity per slot.
            histogram: delay histogram the deliveries fold into.
            until_empty: stop before the first slot whose pre-push backlog
                is ``<= EPSILON``.

        Returns:
            ``(delivered, backlog)``: bits served and :attr:`size` after
            each replayed slot.
        """
        if self.capacity is not None:
            raise ConfigError("replay needs an unbounded queue")
        arrivals = np.asarray(arrivals, dtype=float)
        per_slot = np.ndim(capacity) > 0
        if per_slot:
            capacity = np.asarray(capacity, dtype=float)
            if capacity.shape != arrivals.shape:
                raise ConfigError("arrivals and capacities must have equal length")
        # NaN fails both tests, so the numpy keep-up commit never sees one.
        if not np.all(capacity >= 0):
            raise ConfigError("capacity must be >= 0 (and not NaN)")
        if not np.all(arrivals >= 0):
            raise ConfigError("bits must be >= 0 (and not NaN)")
        n = len(arrivals)
        values = arrivals.tolist()
        caps = capacity.tolist() if per_slot else [float(capacity)] * n
        # Slots whose arrivals exceed the capacity, then a sentinel: a
        # keep-up stretch from an empty queue runs to the next of them.
        loud = [] if until_empty else np.flatnonzero(arrivals > capacity).tolist()
        loud.append(n)
        parts: list[tuple[np.ndarray, np.ndarray]] = []
        served: list[float] = []
        after: list[float] = []
        chunks = self._chunks
        size = self._size
        i = 0  # next slot (index into arrivals)
        j = 0  # index into loud
        try:
            while i < n:
                if until_empty:
                    if size <= EPSILON:
                        break
                    resume = i
                elif not chunks and size == 0.0:
                    while loud[j] < i:
                        j += 1
                    resume = loud[j]
                    if resume - i >= KEEPUP_RUN:
                        if served:
                            parts.append((np.array(served), np.array(after)))
                            served, after = [], []
                        quiet = arrivals[i:resume]
                        positive = quiet[quiet > EPSILON]
                        if positive.size:
                            histogram[0] = float(
                                np.add.accumulate(
                                    np.concatenate(([histogram.get(0, 0.0)], positive))
                                )[-1]
                            )
                        parts.append(
                            (np.where(quiet > EPSILON, quiet, 0.0), np.zeros(resume - i))
                        )
                        i = resume
                        continue
                else:
                    resume = i
                # Per slot until the queue is empty again at or past resume.
                for k in range(i, n):
                    if until_empty and size <= EPSILON:
                        break
                    bits = values[k]
                    remaining = caps[k]
                    if not chunks and bits <= remaining:
                        # push + serve on an empty queue: the slot's own
                        # bits (dust: none) go out at delay 0 and the queue
                        # ends exactly empty.
                        if bits > EPSILON:
                            histogram[0] = histogram.get(0, 0.0) + bits
                            served.append(bits)
                        else:
                            served.append(0.0)
                        after.append(0.0)
                        size = 0.0
                        if k >= resume:
                            k += 1
                            break
                        continue
                    slot = t + k
                    if bits > EPSILON:  # push
                        if chunks and chunks[-1][0] >= slot:
                            if chunks[-1][0] > slot:
                                raise SimulationError(
                                    f"push at t={slot} after chunk stamped {chunks[-1][0]}"
                                )
                            chunks[-1][1] += bits
                        else:
                            chunks.append([slot, bits])
                        size += bits
                    total, size = serve_fifo(chunks, size, slot, remaining, histogram)
                    served.append(total)
                    after.append(size if size > EPSILON else 0.0)
                    if not chunks and k >= resume:
                        k += 1
                        break
                else:
                    k = n
                i = k
        finally:
            self._size = size
        if served or not parts:
            parts.append((np.array(served, dtype=float), np.array(after, dtype=float)))
        if len(parts) == 1:
            return parts[0]
        return (
            np.concatenate([d for d, _ in parts]),
            np.concatenate([b for _, b in parts]),
        )

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

    def peek_chunks(self) -> list[tuple[int, float]]:
        """Snapshot of (arrival, bits) chunks, oldest first."""
        return [(arrival, bits) for arrival, bits in self._chunks]

    def max_age(self, t: int) -> int:
        """Age in slots of the oldest queued bit (0 when empty)."""
        oldest = self.oldest_arrival
        if oldest is None:
            return 0
        return t - oldest
