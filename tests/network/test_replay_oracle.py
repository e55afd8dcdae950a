"""The fused replay kernel against the two replay loops it replaced.

``repro.network.queue.replay_fifo`` is the one replay loop: the
single-session engine's slices, the RESET drain, ``simulate_fifo_delay``
and the multi-session lanes all run it.  The references here are the two
hand-fused loops it replaced, kept verbatim (``self`` became an
argument): ``BitQueue.replay`` (one queue, scalar or per-slot capacities,
the ``until_empty`` stop) and ``SessionChannels.replay`` (regular and
overflow queues, literal or pooled, ``Session`` counters and the
phase-end and TEST stops).

Every comparison is ``==``: bits served and backlogs per slot, the stop
slot, histogram items in order, chunks, sizes, ``bits_arrived``,
``bits_delivered`` and ``max_delay``.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, SimulationError
from repro.network.channel import SessionChannels
from repro.network.queue import EPSILON, BitQueue, replay_fifo, serve_fifo
from repro.network.session import Session
from tests.network.test_channel import _build, _Case, _cases, replay_session
from tests.references import queue_chunks
from tests.strategies import FUZZ_EXAMPLES

# -- the references: the two loops before the kernel ---------------------------

#: Shortest keep-up stretch the references commit with numpy; shorter ones
#: take their pure-Python loop.  The kernel has no such stretch, so the
#: stretch-length cases below stay as inputs around this threshold.
KEEPUP_RUN = 32


def queue_replay(
    queue: BitQueue,
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
    if queue.capacity is not None:
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
    chunks = queue._chunks
    size = queue._size
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
        queue._size = size
    if served or not parts:
        parts.append((np.array(served, dtype=float), np.array(after, dtype=float)))
    if len(parts) == 1:
        return parts[0]
    return (
        np.concatenate([d for d, _ in parts]),
        np.concatenate([b for _, b in parts]),
    )


def channels_replay(
    channels: SessionChannels,
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
    factor = channels.capacity_factor
    if fifo:
        pooled = channels.total_bandwidth * factor
    else:
        overflow_capacity = channels.overflow_link.bandwidth * factor
        regular_capacity = channels.regular_link.bandwidth * factor
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
    regular = channels.regular_queue
    overflow = channels.overflow_queue
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


# -- strategies ----------------------------------------------------------------

_SETTINGS = settings(max_examples=FUZZ_EXAMPLES, deadline=None)

#: Stretch lengths: short, and at and around KEEPUP_RUN, where the
#: references switch from their per-slot loop to their numpy commit.
_LENGTHS = st.one_of(
    st.integers(0, 12), st.sampled_from([KEEPUP_RUN - 1, KEEPUP_RUN, KEEPUP_RUN + 1, 80])
)
_PIECES = st.lists(
    st.tuples(st.sampled_from(["quiet", "loud", "dust", "zero"]), _LENGTHS), max_size=6
)


def _stream(seed: int, pieces, capacity: float) -> np.ndarray:
    """Arrivals built from pieces: quiet slots at or below ``capacity``
    (and exactly at it), loud ones above it, dust and exact zeros."""
    rng = np.random.default_rng(seed)
    out = []
    for kind, length in pieces:
        if kind == "quiet":
            piece = rng.uniform(0.0, capacity, size=length)
            piece[rng.random(length) < 0.1] = capacity
        elif kind == "loud":
            piece = capacity + rng.uniform(0.5, 30.0, size=length)
        elif kind == "dust":
            piece = rng.choice([EPSILON / 2, EPSILON, 2 * EPSILON], size=length)
        else:
            piece = np.zeros(length)
        out.append(piece)
    return np.concatenate(out) if out else np.zeros(0)


def _per_slot(seed: int, n: int, capacity: float) -> np.ndarray:
    """Per-slot capacities around ``capacity``, with zeros and dust."""
    rng = np.random.default_rng(seed + 1)
    caps = np.full(n, capacity) * rng.choice([1.0, 1.0, 0.5, 2.0], size=n)
    caps[rng.random(n) < 0.1] = 0.0
    caps[rng.random(n) < 0.05] = EPSILON / 2
    return caps


def _queue_state(queue: BitQueue) -> tuple:
    return queue_chunks(queue), queue._size, queue.size


def _session_state(session: Session) -> tuple:
    channels = session.channels
    return (
        list(session.histogram.items()),
        session.bits_arrived,
        session.bits_delivered,
        session.max_delay,
        _queue_state(channels.regular_queue),
        _queue_state(channels.overflow_queue),
    )


def _assert_single(arrivals, capacity, preload=(), until_empty=False):
    """The kernel and ``queue_replay`` from equal queues, preloaded with
    ``(slot, bits)`` pushes: equal columns (so an equal stop slot),
    histograms, chunks and sizes."""
    kernel, reference = BitQueue(), BitQueue()
    for queue in (kernel, reference):
        for slot, bits in preload:
            queue.push(slot, bits)
    start = preload[-1][0] + 1 if preload else 0
    got_hist, want_hist = {2: 0.25}, {2: 0.25}
    got = replay_fifo(start, arrivals, kernel, capacity, got_hist, until_empty=until_empty)
    want = queue_replay(reference, start, arrivals, capacity, want_hist, until_empty)
    assert got[0] == want[0].tolist()
    assert got[1] == want[1].tolist()
    assert list(got_hist.items()) == list(want_hist.items())
    assert _queue_state(kernel) == _queue_state(reference)
    return got


def _assert_session(case: _Case, limit=math.inf, phase=None, histogram=None):
    """The kernel and ``channels_replay`` from equal sessions; ``phase``
    is ``(offset, period)`` from the first replayed slot."""
    kernel, t = _build(case)
    reference, _ = _build(case)
    kernel.histogram = dict(histogram or {})
    reference.histogram = dict(histogram or {})
    if phase is not None:
        phase = (t + phase[0], phase[1])
    got = replay_session(kernel, t, case.arrivals, case.fifo, limit, phase)
    want = channels_replay(reference.channels, t, case.arrivals, case.fifo, reference, limit, phase)
    assert got == want
    assert _session_state(kernel) == _session_state(reference)
    return got


# -- the identity tests ----------------------------------------------------------


class TestSingleQueue:
    """One queue, as the single-session engine, its RESET drain and
    ``simulate_fifo_delay`` replay it."""

    @given(
        seed=st.integers(0, 2**31),
        pieces=_PIECES,
        capacity=st.sampled_from([0.0, EPSILON / 2, 1.0, 4.0, 17.5]),
        per_slot=st.booleans(),
        preload=st.lists(st.sampled_from([0.5, 7.5, 2 * EPSILON, 5e7]), max_size=4),
        until_empty=st.booleans(),
    )
    @_SETTINGS
    def test_matches_bitqueue_replay(self, seed, pieces, capacity, per_slot, preload, until_empty):
        arrivals = _stream(seed, pieces, capacity)
        caps = _per_slot(seed, len(arrivals), capacity) if per_slot else capacity
        _assert_single(arrivals, caps, list(enumerate(preload)), until_empty=until_empty)

    def test_until_empty_stops_before_the_drained_slot(self):
        delivered, _ = _assert_single(np.zeros(8), 4.0, [(0, 10.0)], until_empty=True)
        assert len(delivered) == 3

    def test_until_empty_on_an_empty_queue_replays_nothing(self):
        delivered, _ = _assert_single(np.ones(40), 4.0, until_empty=True)
        assert len(delivered) == 0

    def test_until_empty_with_exactly_epsilon_left(self):
        # 2e-9 served at 1e-9 leaves a chunk of exactly EPSILON: the
        # backlog reads as drained while a chunk remains.
        delivered, _ = _assert_single(
            np.zeros(4), np.full(4, EPSILON), [(0, 2 * EPSILON)], until_empty=True
        )
        assert len(delivered) == 1

    def test_per_slot_capacities_with_zeros_and_dust(self):
        arrivals = np.array([3.0, 0.0, 2.0, EPSILON, 1.0, 0.0] * 10)
        caps = np.array([0.0, EPSILON / 2, 2.5, 0.0, EPSILON, 4.0] * 10)
        _assert_single(arrivals, caps, [(0, 1.0)])

    @pytest.mark.parametrize("length", [KEEPUP_RUN - 1, KEEPUP_RUN, KEEPUP_RUN + 1])
    @pytest.mark.parametrize("per_slot", [False, True])
    def test_keepup_stretches_around_the_threshold(self, length, per_slot):
        rng = np.random.default_rng(length)
        pieces = []
        for _ in range(4):
            pieces += [np.full(3, 9.0), rng.uniform(0.0, 4.0, size=length), [EPSILON] * 2]
        arrivals = np.concatenate(pieces)
        caps = np.full(len(arrivals), 4.0) if per_slot else 4.0
        _assert_single(arrivals, caps)

    def test_out_of_order_push_raises(self):
        reference, kernel = BitQueue(), BitQueue()
        reference.push(5, 1.0)
        kernel.push(5, 1.0)
        with pytest.raises(SimulationError, match="push at t=3"):
            queue_replay(reference, 3, np.array([1.0]), 0.0, {})
        with pytest.raises(SimulationError, match="push at t=3"):
            replay_fifo(3, np.array([1.0]), kernel, 0.0, {})

    def test_bounded_queue_is_rejected(self):
        with pytest.raises(ConfigError):
            queue_replay(BitQueue(capacity=5.0), 0, np.ones(3), 1.0, {})
        with pytest.raises(ConfigError):
            replay_fifo(0, np.ones(3), BitQueue(capacity=5.0), 1.0, {})
        with pytest.raises(ConfigError):
            replay_fifo(0, np.ones(3), BitQueue(), 1.0, {}, overflow=BitQueue(capacity=5.0))

    @pytest.mark.parametrize(
        "arrivals, capacity",
        [
            ([1.0, -0.5], 1.0),
            ([1.0, math.nan], 1.0),
            ([1.0], -1.0),
            ([1.0], math.nan),
            ([1.0], [1.0, 1.0]),
        ],
    )
    def test_bad_input_is_rejected(self, arrivals, capacity):
        with pytest.raises(ConfigError):
            queue_replay(BitQueue(), 0, np.array(arrivals), np.array(capacity), {})
        with pytest.raises(ConfigError):
            replay_fifo(0, np.array(arrivals), BitQueue(), np.array(capacity), {})


#: Long arrivals for a session: stretches around KEEPUP_RUN on a 4-bit
#: regular bandwidth.
_LONG = st.builds(
    lambda seed, pieces: _stream(seed, pieces, 4.0).tolist(), st.integers(0, 2**31), _PIECES
)


class TestSession:
    """Regular and overflow queues with ``Session`` counters, as the
    multi-session lanes replay them."""

    @given(
        case=_cases(max_slots=80),
        long=st.one_of(st.none(), _LONG),
        limit=st.sampled_from([math.inf, 0.0, 1.0, 6.0, 30.0]),
        phase=st.one_of(st.none(), st.tuples(st.integers(0, 9), st.integers(1, 8))),
    )
    @example(  # a phase end stops the replay before its push
        case=_Case([], [(0, 5.0)], 0.0, 0.0, 1, 0, [0.0, 0.0], False),
        long=None, limit=4.0, phase=(0, 8),
    )
    @example(  # a TEST stops the replay after the push would cross the limit
        case=_Case([], [], 1.0, 0.0, 0, 0, [1.0, 3.0, 9.0, 0.0], False),
        long=None, limit=8.0, phase=None,
    )
    @example(  # dust arrives at a backlogged queue: counted, never queued
        case=_Case([], [(0, 5.0)], 1.0, 0.0, 1, 0, [EPSILON / 2, EPSILON, 0.0, 2.0], True),
        long=None, limit=math.inf, phase=None,
    )
    @_SETTINGS
    def test_matches_session_channels_replay(self, case, long, limit, phase):
        if long is not None:
            case.arrivals = long
        # The policies' limits are B_i^r·D_O + EPSILON, so at least EPSILON.
        _assert_session(case, limit + EPSILON, phase, histogram={0: 0.1, 1: 0.7, 3: 1e-3})

    def test_phase_end_stop_reads_the_queue_before_the_push(self):
        case = _Case([], [(0, 5.0)], 0.0, 0.0, 1, 0, [0.0, 0.0], False)
        assert len(_assert_session(case, limit=4.0, phase=(0, 8))[0]) == 0
        assert len(_assert_session(case, limit=4.0, phase=(1, 8))[0]) == 1

    def test_test_stop_reads_the_queue_after_the_push(self):
        case = _Case([], [], 1.0, 0.0, 0, 0, [1.0, 3.0, 9.0, 0.0], False)
        assert len(_assert_session(case, limit=8.0 + EPSILON)[0]) == 2

    def test_a_phase_end_slot_before_first_does_not_stop(self):
        # Slots t and t+4 are congruent to first = t+8 modulo 4, and the
        # queue is above the limit throughout: only t+8 is a phase end.
        case = _Case([], [(0, 20.0)], 0.0, 0.0, 1, 0, [0.0] * 12, False)
        assert len(_assert_session(case, limit=4.0, phase=(8, 4))[0]) == 8

    @pytest.mark.parametrize(
        "queued, replayed", [(4.0, 4), (math.nextafter(4.0, math.inf), 0)]
    )
    def test_a_phase_end_stops_only_above_the_limit(self, queued, replayed):
        case = _Case([], [(0, queued)], 0.0, 0.0, 1, 0, [0.0] * 4, False)
        assert len(_assert_session(case, limit=4.0, phase=(0, 2))[0]) == replayed

    @pytest.mark.parametrize("fifo", [False, True])
    def test_a_phase_end_with_only_overflow_bits_does_not_stop(self, fifo):
        # The overflow queue keeps the slots busy; the regular queue is
        # empty at every phase end, so none stops, even at limit 0.
        case = _Case([(0, 10.0)], [], 1.0, 0.0, 1, 0, [0.0, EPSILON / 2, 0.0] * 2, fifo)
        assert len(_assert_session(case, limit=0.0, phase=(0, 1))[0]) == 6

    @pytest.mark.parametrize("dust", [EPSILON / 2, EPSILON])
    def test_a_dust_arrival_above_the_limit_fires_the_test(self, dust):
        # The dust is not queued, but the TEST reads a queue already above
        # the limit; an exact zero arrival runs no TEST.
        case = _Case([], [(0, 10.0)], 0.0, 0.0, 1, 0, [0.0, dust, 1.0], False)
        assert len(_assert_session(case, limit=4.0)[0]) == 1

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("fifo", [False, True])
    def test_eight_slot_replays_keep_the_session_counters(self, seed, fifo):
        # The epoch allocators replay every session from one 8-slot epoch
        # to the next: many short calls, each folding the counters.
        rng = np.random.default_rng(seed)
        case = _Case([(0, 6.0)], [(1, 3.0)], 4.0, 2, 0, 0, [], fifo)
        kernel, t = _build(case)
        reference, _ = _build(case)
        for epoch in range(12):
            pieces = [("quiet", 3), ("dust", 2), ("loud", 1), ("zero", 2)]
            arrivals = _stream(seed * 100 + epoch, pieces, 4.0)
            rng.shuffle(arrivals)
            got = replay_session(kernel, t, arrivals, fifo)
            want = channels_replay(reference.channels, t, arrivals, fifo, reference)
            assert got == want
            assert _session_state(kernel) == _session_state(reference)
            t += 8

    @pytest.mark.parametrize("length", [KEEPUP_RUN - 1, KEEPUP_RUN, KEEPUP_RUN + 1])
    @pytest.mark.parametrize("fifo", [False, True])
    def test_keepup_stretches_around_the_threshold(self, length, fifo):
        arrivals = ([9.0, 0.0] + [1.0, EPSILON / 2, 3.5] * (length // 3 + 1))[: length + 2] * 4
        # A burst after the stretches stays above the limit at a phase end.
        arrivals += [60.0] + [1.0] * 20
        case = _Case([(0, 2.0)], [(1, 1.0)], 4.0, 1.0, 0, 0, arrivals, fifo)
        for phase in (None, (3, 8)):
            delivered, _ = _assert_session(case, 16.0 + EPSILON, phase, histogram={0: 0.1})
            assert len(delivered) < len(arrivals)

    @pytest.mark.parametrize("fifo", [False, True])
    def test_out_of_order_push_raises(self, fifo):
        session = Session(0)
        session.push(5, 1.0)
        with pytest.raises(SimulationError, match="push at t=3"):
            replay_session(session, 3, [1.0], fifo)
