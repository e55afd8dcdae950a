"""Per-slot trace recording and the finalized trace dataclasses.

Traces are the single interchange format of the library: the engine produces
them, the analysis module consumes them, and experiments serialize rows out
of them.  Everything is dense per-slot numpy arrays plus sparse event lists
(allocation changes, stage starts, resets).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.network.link import BandwidthChange


def merge_histograms(histograms: list[dict[int, float]]) -> dict[int, float]:
    """Merge bits-weighted delay histograms."""
    merged: dict[int, float] = {}
    for histogram in histograms:
        for delay, bits in histogram.items():
            merged[delay] = merged.get(delay, 0.0) + bits
    return merged


def histogram_max_delay(histogram: dict[int, float]) -> int:
    """Largest delay with positive bits (0 for an empty histogram)."""
    return max(histogram.keys(), default=0)


def histogram_quantile(histogram: dict[int, float], q: float) -> int:
    """Bits-weighted delay quantile (q in [0, 1])."""
    if not histogram:
        return 0
    total = sum(histogram.values())
    threshold = q * total
    acc = 0.0
    for delay in sorted(histogram):
        acc += histogram[delay]
        if acc >= threshold:
            return delay
    return max(histogram)


def _splice(
    scalar: tuple[list, ...], blocks: list[tuple[int, tuple]], shapes: list[tuple]
) -> list[np.ndarray]:
    """Materialize per-slot columns: the scalar lists with deferred bulk
    blocks spliced in between, in commit order.

    ``blocks`` holds ``(pos, values)``: ``pos`` is the scalar-list length
    at commit time and ``values`` has one entry per column, an array as
    long as the block or a constant.  ``shapes`` gives each column's
    per-slot shape.  Each column is written once into its final array, so
    finalizing holds the scalar lists plus one copy of the trace, never
    two.
    """
    count = len(scalar[0])
    total = count + sum(len(values[0]) for _, values in blocks)
    columns = [np.empty((total, *shape)) for shape in shapes]
    previous = 0  # scalar slots consumed
    at = 0  # slots written
    for pos, values in blocks:
        if pos > previous:
            for column, lst in zip(columns, scalar):
                column[at : at + pos - previous] = lst[previous:pos]
            at += pos - previous
        n = len(values[0])
        for column, value in zip(columns, values):
            column[at : at + n] = value
        at += n
        previous = pos
    if previous < count:
        for column, lst in zip(columns, scalar):
            column[at:] = lst[previous:]
    return columns


@dataclass
class SingleSessionTrace:
    """Finalized record of a single-session run."""

    arrivals: np.ndarray
    allocation: np.ndarray
    delivered: np.ndarray
    backlog: np.ndarray
    delay_histogram: dict[int, float]
    changes: list[BandwidthChange]
    stage_starts: list[int]
    resets: list[int]
    horizon: int
    dropped: np.ndarray = None  # set in __post_init__ when omitted
    #: Bandwidth the policy *requested* each slot.  Differs from
    #: ``allocation`` (granted) only under an unreliable signaling plane;
    #: defaults to a copy of ``allocation``.
    requested: np.ndarray = None
    #: Bandwidth the wire actually served with (granted × degradation);
    #: defaults to a copy of ``allocation``.
    effective: np.ndarray = None

    def __post_init__(self) -> None:
        if self.dropped is None:
            self.dropped = np.zeros_like(self.arrivals)
        if self.requested is None:
            self.requested = self.allocation.copy()
        if self.effective is None:
            self.effective = self.allocation.copy()

    @property
    def slots(self) -> int:
        """Total simulated slots, including the drain tail."""
        return len(self.arrivals)

    @property
    def max_delay(self) -> int:
        return histogram_max_delay(self.delay_histogram)

    @property
    def change_count(self) -> int:
        return len(self.changes)

    @property
    def completed_stages(self) -> int:
        """Stages ended by ``high < low`` (offline-change certificates)."""
        return len(self.resets)

    @property
    def total_arrived(self) -> float:
        return float(self.arrivals.sum())

    @property
    def total_delivered(self) -> float:
        return float(self.delivered.sum())

    @property
    def total_dropped(self) -> float:
        """Bits tail-dropped at a finite ingress buffer (0 when unbounded)."""
        return float(self.dropped.sum())

    @property
    def loss_rate(self) -> float:
        """Dropped fraction of all offered bits."""
        offered = self.total_arrived
        if offered <= 0:
            return 0.0
        return self.total_dropped / offered

    @property
    def max_backlog(self) -> float:
        """Peak end-of-slot queue size (buffer sizing requirement)."""
        return float(self.backlog.max(initial=0.0))

    @property
    def max_allocation(self) -> float:
        return float(self.allocation.max(initial=0.0))


@dataclass
class MultiSessionTrace:
    """Finalized record of a multi-session run.

    Arrays are shaped ``(slots, k)`` except the per-slot totals and the
    optional extra (global-overflow) channel, which are ``(slots,)``.
    """

    arrivals: np.ndarray
    regular_allocation: np.ndarray
    overflow_allocation: np.ndarray
    delivered: np.ndarray
    backlog: np.ndarray
    extra_allocation: np.ndarray
    delay_histograms: list[dict[int, float]]
    local_changes: list[tuple[int, str, BandwidthChange]]
    extra_changes: list[BandwidthChange]
    stage_starts: list[int]
    resets: list[int]
    horizon: int
    #: Per-slot total bandwidth the policy *requested* across all channels;
    #: differs from ``total_allocation`` only under unreliable signaling.
    requested_total: np.ndarray = None
    #: Per-slot bits removed by ingress faults before reaching the queues.
    dropped: np.ndarray = None

    def __post_init__(self) -> None:
        if self.requested_total is None:
            self.requested_total = self.total_allocation.copy()
        if self.dropped is None:
            self.dropped = np.zeros(self.arrivals.shape[0], dtype=float)

    @property
    def slots(self) -> int:
        return self.arrivals.shape[0]

    @property
    def k(self) -> int:
        return self.arrivals.shape[1]

    @property
    def total_allocation(self) -> np.ndarray:
        """Per-slot total allocated bandwidth across every channel."""
        return (
            self.regular_allocation.sum(axis=1)
            + self.overflow_allocation.sum(axis=1)
            + self.extra_allocation
        )

    @property
    def max_total_allocation(self) -> float:
        total = self.total_allocation
        return float(total.max(initial=0.0))

    @property
    def max_delay(self) -> int:
        return max(
            (histogram_max_delay(h) for h in self.delay_histograms), default=0
        )

    @property
    def merged_delay_histogram(self) -> dict[int, float]:
        return merge_histograms(self.delay_histograms)

    @property
    def local_change_count(self) -> int:
        return len(self.local_changes)

    @property
    def change_count(self) -> int:
        return len(self.local_changes) + len(self.extra_changes)

    @property
    def completed_stages(self) -> int:
        return len(self.resets)

    @property
    def total_arrived(self) -> float:
        return float(self.arrivals.sum())

    @property
    def total_delivered(self) -> float:
        return float(self.delivered.sum())


class _ColumnStore:
    """Per-slot columns both recorders keep: lists a scalar step appends
    to, and deferred bulk blocks :func:`_splice` puts in between at
    finalize.  ``shapes`` gives each column's per-slot shape."""

    def __init__(self, shapes: list[tuple]):
        self._shapes = shapes
        self._columns = tuple([] for _ in shapes)
        #: Deferred bulk blocks ``(pos, values)`` for :func:`_splice`:
        #: the bulk path never pays per-slot appends.
        self._blocks: list[tuple[int, tuple]] = []

    def _defer(self, *values) -> None:
        """Defer a bulk block: one array (as long as the block) or
        constant per column."""
        self._blocks.append((len(self._columns[0]), values))

    def _spliced(self) -> list[np.ndarray]:
        return _splice(self._columns, self._blocks, self._shapes)


class SingleSessionRecorder(_ColumnStore):
    """Accumulates per-slot data for a single-session run."""

    def __init__(self) -> None:
        super().__init__([()] * 7)
        (
            self._arrivals,
            self._allocation,
            self._delivered,
            self._backlog,
            self._dropped,
            self._requested,
            self._effective,
        ) = self._columns
        #: Bits-weighted delay histogram: the engine's queue folds every
        #: delivery into it as it serves (:meth:`BitQueue.serve
        #: <repro.network.queue.BitQueue.serve>` and ``replay``).
        self.histogram: dict[int, float] = {}

    def record(
        self,
        t: int,
        arrivals: float,
        allocation: float,
        delivered: float,
        backlog_after: float,
        dropped: float = 0.0,
        requested: float | None = None,
        effective: float | None = None,
    ) -> None:
        self._arrivals.append(arrivals)
        self._allocation.append(allocation)
        self._delivered.append(delivered)
        self._backlog.append(backlog_after)
        self._dropped.append(dropped)
        self._requested.append(allocation if requested is None else requested)
        self._effective.append(allocation if effective is None else effective)

    def record_keepup_block(
        self,
        arrivals: np.ndarray,
        allocation: float,
        delivered: np.ndarray,
        backlog: np.ndarray,
        dropped: float | np.ndarray = 0.0,
        effective: np.ndarray | None = None,
    ) -> None:
        """Bulk-append a policy-quiet slice: a constant allocation over
        ``len(arrivals)`` slots, whose queue was replayed by
        :func:`~repro.network.queue.replay_fifo`.

        Equivalent to ``record`` once per slot with those outcomes:
        ``arrivals`` are the offered bits, ``delivered`` and ``backlog`` the
        replay's per-slot bits served and end-of-slot queue size,
        ``dropped`` the bits an ingress fault removed (a per-slot array, or
        0 for none) and ``effective`` the per-slot bandwidth the wire served
        with (None: the allocation); requested bandwidth equals the
        allocation.  This call only defers the per-slot columns: the slice
        is spliced in at :meth:`finalize`, which keeps it O(1).
        """
        if effective is None:
            effective = allocation
        self._defer(arrivals, allocation, delivered, backlog, dropped, allocation, effective)

    def finalize(
        self,
        changes: list[BandwidthChange],
        stage_starts: list[int],
        resets: list[int],
        horizon: int,
    ) -> SingleSessionTrace:
        arrivals, allocation, delivered, backlog, dropped, requested, effective = self._spliced()
        return SingleSessionTrace(
            arrivals=arrivals,
            allocation=allocation,
            delivered=delivered,
            backlog=backlog,
            # Copied: a later step keeps folding deliveries into the live dict.
            delay_histogram=dict(self.histogram),
            changes=list(changes),
            stage_starts=list(stage_starts),
            resets=list(resets),
            horizon=horizon,
            dropped=dropped,
            requested=requested,
            effective=effective,
        )


class MultiSessionRecorder(_ColumnStore):
    """Accumulates per-slot data for a multi-session run.

    The delay histograms are not the recorder's: each
    :class:`~repro.network.session.Session` owns one, and its channels fold
    every delivery into it as they serve.  :meth:`finalize` copies them
    into the trace.
    """

    def __init__(self, k: int):
        super().__init__([(k,)] * 5 + [()] * 3)
        self.k = k
        (
            self._arrivals,
            self._regular,
            self._overflow,
            self._delivered,
            self._backlog,
            self._extra,
            self._requested,
            self._dropped,
        ) = self._columns

    def record(
        self,
        t: int,
        arrivals: list[float],
        regular: list[float],
        overflow: list[float],
        delivered: list[float],
        backlogs: list[float],
        extra_allocation: float,
        requested_total: float | None = None,
        dropped: float = 0.0,
    ) -> None:
        self._arrivals.append(list(arrivals))
        self._regular.append(list(regular))
        self._overflow.append(list(overflow))
        self._delivered.append(list(delivered))
        self._backlog.append(list(backlogs))
        self._extra.append(extra_allocation)
        if requested_total is None:
            requested_total = sum(regular) + sum(overflow) + extra_allocation
        self._requested.append(requested_total)
        self._dropped.append(dropped)

    def record_keepup_block(
        self,
        arrivals: np.ndarray,
        regular: list[float],
        overflow: list[float],
        requested_total: float | None,
        delivered: np.ndarray,
        backlog: np.ndarray,
    ) -> None:
        """Bulk-append part of a slice: ``len(arrivals)`` slots at
        constant allocations, whose queues were replayed by
        :func:`~repro.network.queue.replay_fifo`.

        Equivalent to ``record`` once per slot with those outcomes:
        ``arrivals``, ``delivered`` and ``backlog`` are ``(n, k)`` arrays
        of arrival rows, bits served and end-of-slot backlogs, ``regular``
        and ``overflow`` the per-session allocations, there is no extra
        channel and nothing is dropped (``requested_total=None`` records
        :meth:`record`'s default).  This call only defers the columns: the
        block is spliced in at :meth:`finalize`.
        """
        if requested_total is None:
            requested_total = sum(regular) + sum(overflow) + 0.0
        self._defer(arrivals, regular, overflow, delivered, backlog, 0.0, requested_total, 0.0)

    def finalize(
        self,
        local_changes: list[tuple[int, str, BandwidthChange]],
        extra_changes: list[BandwidthChange],
        stage_starts: list[int],
        resets: list[int],
        horizon: int,
        delay_histograms: list[dict[int, float]],
    ) -> MultiSessionTrace:
        arrivals, regular, overflow, delivered, backlog, extra, requested, dropped = self._spliced()
        return MultiSessionTrace(
            arrivals=arrivals,
            regular_allocation=regular,
            overflow_allocation=overflow,
            delivered=delivered,
            backlog=backlog,
            extra_allocation=extra,
            # Copied: a later step keeps folding deliveries into the live dicts.
            delay_histograms=[dict(h) for h in delay_histograms],
            local_changes=list(local_changes),
            extra_changes=list(extra_changes),
            stage_starts=list(stage_starts),
            resets=list(resets),
            horizon=horizon,
            requested_total=requested,
            dropped=dropped,
        )
