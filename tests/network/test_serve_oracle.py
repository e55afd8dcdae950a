"""The FIFO serve kernel against the object-building path it replaced.

``repro.network.queue.serve_fifo`` is the one FIFO serve loop:
``BitQueue.serve``, ``replay_fifo``, ``SessionChannels.serve`` and the
combined algorithm's global queues all run it, so checking any of them
against another checks the kernel against itself.  The oracles here are the earlier per-slot path, kept verbatim
(``self`` became an argument): ``BitQueue.serve`` building one
:class:`Delivery` per arrival cohort into a :class:`ServeResult`,
``SessionChannels.serve`` merging the two queues' results,
``Session.account`` and the recorders' histogram fold.  The replay tests
(``tests/network/test_channel.py``, ``tests/analysis/test_fifo_replay.py``)
use them as their per-slot references too.

Every comparison is ``==``: bits served, histogram contents and key order,
chunks, sizes, ``bits_delivered`` and ``max_delay``.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.combined import CombinedMultiSession
from repro.errors import ConfigError
from repro.network.queue import EPSILON, BitQueue
from repro.network.session import Session
from tests.references import queue_chunks
from tests.strategies import FUZZ_EXAMPLES

# -- the oracles: the serve path before the kernel ----------------------------


@dataclass
class Delivery:
    """Bits delivered in one slot from one arrival cohort."""

    arrival: int
    served_at: int
    bits: float

    @property
    def delay(self) -> int:
        """Slots between arrival and delivery (0 = same slot)."""
        return self.served_at - self.arrival


@dataclass
class ServeResult:
    """Outcome of one :func:`queue_serve` call."""

    bits: float = 0.0
    deliveries: list[Delivery] = field(default_factory=list)

    @property
    def max_delay(self) -> int:
        """Largest delay among the served bits (-1 when nothing served)."""
        if not self.deliveries:
            return -1
        return max(d.delay for d in self.deliveries)


def queue_serve(queue: BitQueue, t: int, capacity: float) -> ServeResult:
    """``BitQueue.serve`` as it was: serve up to ``capacity`` bits FIFO
    during slot ``t``."""
    if capacity < 0:
        raise ConfigError(f"capacity must be >= 0, got {capacity!r}")
    result = ServeResult()
    remaining = capacity
    while remaining > 0.0 and queue._chunks:
        arrival, bits = queue._chunks[0]
        take = bits if bits <= remaining else remaining
        result.deliveries.append(Delivery(arrival=arrival, served_at=t, bits=take))
        result.bits += take
        remaining -= take
        queue._size -= take
        if take >= bits - EPSILON:
            queue._chunks.popleft()
        else:
            queue._chunks[0][1] = bits - take
    if not queue._chunks or queue._size < EPSILON:
        queue._size = 0.0
        queue._chunks.clear()
    return result


def channels_serve(channels, t: int, fifo: bool = False) -> ServeResult:
    """``SessionChannels.serve`` as it was: one slot, the merged record."""
    factor = channels.capacity_factor
    if fifo:
        capacity = channels.total_bandwidth * factor
        first = queue_serve(channels.overflow_queue, t, capacity)
        second = queue_serve(channels.regular_queue, t, max(0.0, capacity - first.bits))
    else:
        first = queue_serve(channels.overflow_queue, t, channels.overflow_link.bandwidth * factor)
        second = queue_serve(channels.regular_queue, t, channels.regular_link.bandwidth * factor)
    return ServeResult(
        bits=first.bits + second.bits,
        deliveries=first.deliveries + second.deliveries,
    )


def account(session, result: ServeResult) -> None:
    """``Session.account`` as it was."""
    session.bits_delivered += result.bits
    if result.deliveries:
        worst = result.max_delay
        if worst > session.max_delay:
            session.max_delay = worst


def fold(histogram: dict[int, float], result: ServeResult) -> None:
    """The recorders' per-delivery fold."""
    for delivery in result.deliveries:
        histogram[delivery.delay] = histogram.get(delivery.delay, 0.0) + delivery.bits


def global_overflow_serve(policy: CombinedMultiSession, t: int) -> list[ServeResult]:
    """``CombinedMultiSession._serve_global_overflow`` as it was; its step
    then accounted each result with positive bits to the session."""
    sizes = [q.size for q in policy._global_queues]
    total = sum(sizes)
    if total <= EPSILON:
        policy.extra_link.set(t, 0.0)
        return [ServeResult() for _ in range(policy.k)]
    policy.extra_link.set(t, policy.global_overflow_capacity)
    results = []
    for size, queue in zip(sizes, policy._global_queues):
        share = policy.global_overflow_capacity * (size / total)
        results.append(queue_serve(queue, t, share))
    return results


# -- strategies ----------------------------------------------------------------

#: Bits: nothing, dust at and around EPSILON, unit chunks, fractional bits
#: and magnitudes that absorb dust-sized chunks into the size.
_BITS = st.one_of(
    st.sampled_from([0.0, EPSILON / 2, EPSILON, 2 * EPSILON, 1.0, 3.0, 5e7]),
    st.floats(min_value=0.0, max_value=40.0),
)
#: Capacities: zero, sub-EPSILON, fractional and large, or relative to the
#: head chunk: exactly it, or short of / past it by less than EPSILON (the
#: split that pops a chunk and strands dust).
_HEAD = {"head-dust": -EPSILON / 2, "head": 0.0, "head+dust": EPSILON / 2}
_CAPACITIES = st.one_of(
    st.sampled_from([0.0, EPSILON / 2, 1.0, 2.5, 5e7, *_HEAD]),
    st.floats(min_value=0.0, max_value=60.0),
)
_FACTORS = st.sampled_from([1.0, 0.5, 0.3, 0.0])
_PUSHES = st.lists(st.tuples(st.integers(0, 3), _BITS), max_size=5)
_SETTINGS = settings(max_examples=FUZZ_EXAMPLES, deadline=None)

#: Pushes that split a unit chunk short by EPSILON / 2 (the pop strands
#: dust), and a dust chunk behind a size that absorbs it (the size reads
#: 0.0 while a chunk remains, and the chunks must clear).
_UNIT = [(0, 1.0), (1, 3.0)]
_ABSORBED = [(0, 5e7), (1, 2 * EPSILON)]


def _capacity(capacity, queue: BitQueue) -> float:
    """Resolve a head-relative capacity against ``queue``."""
    if capacity not in _HEAD:
        return capacity
    chunks = queue_chunks(queue)
    return (chunks[0][1] if chunks else 1.0) + _HEAD[capacity]


def _queue_state(queue: BitQueue) -> tuple:
    return queue_chunks(queue), queue._size, queue.size


def _session_state(session, histogram: dict[int, float]) -> tuple:
    channels = session.channels
    return (
        list(histogram.items()),
        session.bits_delivered,
        session.max_delay,
        _queue_state(channels.regular_queue),
        _queue_state(channels.overflow_queue),
    )


# -- the identity tests ----------------------------------------------------------


class TestBitQueueServe:
    @given(
        preload=_PUSHES,
        slots=st.lists(st.tuples(st.integers(0, 2), _BITS, _CAPACITIES), max_size=30),
    )
    @example(preload=_UNIT, slots=[(0, 0.0, "head-dust"), (1, 0.0, 2.0)])
    @example(preload=_ABSORBED, slots=[(0, 0.0, "head"), (1, 1.0, 0.5)])
    @_SETTINGS
    def test_matches_the_oracle(self, preload, slots):
        kernel, oracle = BitQueue(), BitQueue()
        t = 0
        for gap, bits in preload:
            t += gap
            kernel.push(t, bits)
            oracle.push(t, bits)
        histogram, expected = {1: 0.25}, {1: 0.25}
        for gap, bits, capacity in slots:
            t += gap
            kernel.push(t, bits)
            oracle.push(t, bits)
            capacity = _capacity(capacity, kernel)
            served = kernel.serve(t, capacity, histogram)
            result = queue_serve(oracle, t, capacity)
            fold(expected, result)
            assert served == result.bits
            assert list(histogram.items()) == list(expected.items())
            assert _queue_state(kernel) == _queue_state(oracle)


def _session(overflow, regular, bandwidths, factor, max_delay) -> tuple[Session, int]:
    """A session whose overflow queue took ``overflow``'s pushes and whose
    regular queue took ``regular``'s; returns it and the last stamp."""
    session = Session(0)
    channels = session.channels
    stamp = 0
    for pushes in (overflow, None, regular):
        if pushes is None:
            channels.move_regular_to_overflow()
            continue
        for gap, bits in pushes:
            stamp += gap
            if bits > 0:
                session.push(stamp, bits)
    regular_bandwidth, overflow_bandwidth = bandwidths
    channels.regular_link.set(0, _capacity(regular_bandwidth, channels.regular_queue))
    channels.overflow_link.set(0, _capacity(overflow_bandwidth, channels.overflow_queue))
    channels.capacity_factor = factor
    session.max_delay = max_delay
    session.bits_delivered = 7.25
    session.histogram = {0: 0.1, 2: 0.7}
    return session, stamp


class TestSessionChannelsServe:
    @given(
        overflow=_PUSHES,
        regular=_PUSHES,
        bandwidths=st.tuples(_CAPACITIES, _CAPACITIES),
        factor=_FACTORS,
        max_delay=st.integers(0, 5),
        gap=st.integers(0, 2),
        arrivals=st.lists(_BITS, max_size=25),
        fifo=st.booleans(),
    )
    @example(
        overflow=_UNIT, regular=_ABSORBED, bandwidths=("head", "head-dust"),
        factor=1.0, max_delay=0, gap=1, arrivals=[0.0, 1.0, 0.0], fifo=False,
    )
    @example(
        overflow=_ABSORBED, regular=_UNIT, bandwidths=(0.0, "head"),
        factor=1.0, max_delay=0, gap=0, arrivals=[0.0, 0.5, 0.0], fifo=True,
    )
    @_SETTINGS
    def test_matches_the_oracle(
        self, overflow, regular, bandwidths, factor, max_delay, gap, arrivals, fifo
    ):
        session, stamp = _session(overflow, regular, bandwidths, factor, max_delay)
        t = stamp + gap
        reference = copy.deepcopy(session)
        expected = dict(reference.histogram)
        for i, bits in enumerate(arrivals):
            if bits > 0:
                session.push(t + i, bits)
                reference.push(t + i, bits)
            served = session.channels.serve(t + i, fifo, session)
            result = channels_serve(reference.channels, t + i, fifo=fifo)
            account(reference, result)
            fold(expected, result)
            assert served == result.bits
            assert _session_state(session, session.histogram) == _session_state(
                reference, expected
            )


class TestCombinedGlobalQueues:
    @given(
        loads=st.lists(_PUSHES, min_size=1, max_size=3),
        max_delays=st.lists(st.integers(0, 6), min_size=3, max_size=3),
        gap=st.integers(0, 2),
        slots=st.integers(1, 8),
    )
    @example(loads=[_ABSORBED, _UNIT], max_delays=[0, 9, 0], gap=0, slots=4)
    @_SETTINGS
    def test_matches_the_oracle(self, loads, max_delays, gap, slots):
        policy = CombinedMultiSession(
            len(loads), offline_bandwidth=4.0, offline_delay=2,
            offline_utilization=0.25, window=4,
        )
        stamp = 0
        for session, queue, pushes, worst in zip(
            policy.sessions, policy._global_queues, loads, max_delays
        ):
            for step, bits in pushes:
                stamp += step
                queue.push(stamp, bits)
            session.max_delay = worst
        reference = copy.deepcopy(policy)
        expected = [dict(session.histogram) for session in reference.sessions]
        for t in range(stamp + gap, stamp + gap + slots):
            served = policy._serve_global_overflow(t)
            results = global_overflow_serve(reference, t)
            for session, result, histogram in zip(reference.sessions, results, expected):
                if result.bits > 0:
                    account(session, result)
                fold(histogram, result)
            assert served == [result.bits for result in results]
            assert policy.extra_link.changes == reference.extra_link.changes
            for session, other, queue, twin, histogram in zip(
                policy.sessions, reference.sessions,
                policy._global_queues, reference._global_queues, expected,
            ):
                assert list(session.histogram.items()) == list(histogram.items())
                assert (session.bits_delivered, session.max_delay) == (
                    other.bits_delivered, other.max_delay
                )
                assert _queue_state(queue) == _queue_state(twin)
