"""Tests for the regular/overflow channel pair."""

import copy
import math
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.channel import SessionChannels
from repro.network.queue import EPSILON, replay_fifo
from repro.network.session import Session
from tests.network.test_serve_oracle import account, channels_serve, fold
from tests.references import queue_chunks
from tests.strategies import FUZZ_EXAMPLES


class TestSessionChannels:
    def test_initial_state(self):
        c = SessionChannels(3)
        assert c.total_bandwidth == 0.0
        assert c.total_queued == 0.0
        assert c.change_count == 0

    def test_push_enters_regular(self):
        c = SessionChannels(0)
        c.push(0, 5)
        assert c.regular_queue.size == 5
        assert c.overflow_queue.size == 0

    def test_move_regular_to_overflow(self):
        c = SessionChannels(0)
        c.push(0, 5)
        moved = c.move_regular_to_overflow()
        assert moved == 5
        assert c.regular_queue.is_empty
        assert c.overflow_queue.size == 5

    def test_literal_serve_respects_per_channel_bandwidth(self):
        session = Session(0)
        c = session.channels
        c.push(0, 10)
        c.move_regular_to_overflow()
        c.push(1, 10)
        c.regular_link.set(1, 3)
        c.overflow_link.set(1, 2)
        assert c.serve(1, False, session) == pytest.approx(5)
        assert c.overflow_queue.size == pytest.approx(8)
        assert c.regular_queue.size == pytest.approx(7)

    def test_fifo_serve_pools_bandwidth_overflow_first(self):
        session = Session(0)
        c = session.channels
        c.push(0, 4)
        c.move_regular_to_overflow()
        c.push(1, 4)
        c.regular_link.set(1, 5)
        c.overflow_link.set(1, 0)
        # Pooled capacity 5: all 4 overflow bits (older) then 1 regular bit.
        assert c.serve(1, True, session) == pytest.approx(5)
        assert c.overflow_queue.is_empty
        delays = list(session.histogram)  # in delivery order
        assert delays == sorted(delays, reverse=True)

    def test_max_age_spans_both_queues(self):
        c = SessionChannels(0)
        c.push(0, 1)
        c.move_regular_to_overflow()
        c.push(5, 1)
        assert c.max_age(7) == 7

    def test_change_count_sums_links(self):
        c = SessionChannels(0)
        c.regular_link.set(0, 1)
        c.overflow_link.set(0, 2)
        c.overflow_link.set(1, 0)
        assert c.change_count == 3


# -- the session replay against the per-slot oracle --------------------------

#: Arrival sizes: nothing, dust at and around EPSILON, fractional bits,
#: and magnitudes large enough to absorb dust-sized chunks into the size.
_BITS = st.one_of(
    st.just(0.0),
    st.sampled_from([EPSILON / 2, EPSILON, 2 * EPSILON, 1e-7, 5e7, 1e8]),
    st.floats(min_value=0.0, max_value=40.0),
)
_BANDWIDTHS = st.one_of(
    st.sampled_from([0.0, EPSILON / 2, 1.0, 2.5, 5e7]),
    st.floats(min_value=0.0, max_value=60.0),
)


@dataclass
class _Case:
    overflow: list  # (stamp gap, bits) pushes later moved to overflow
    regular: list  # (stamp gap, bits) pushes left in the regular queue
    regular_bandwidth: float
    overflow_bandwidth: float | int  # int D: size / D, as Figure 4 sizes it
    gap: int  # slots from the last stamp to the first replayed slot
    max_delay: int
    arrivals: list
    fifo: bool


@st.composite
def _cases(draw, max_slots: int = 40):
    pushes = st.lists(st.tuples(st.integers(0, 3), _BITS), max_size=4)
    return _Case(
        overflow=draw(pushes),
        regular=draw(pushes),
        regular_bandwidth=draw(_BANDWIDTHS),
        overflow_bandwidth=draw(st.one_of(_BANDWIDTHS, st.integers(1, 8))),
        gap=draw(st.integers(0, 2)),
        max_delay=draw(st.integers(0, 5)),
        arrivals=draw(st.lists(_BITS, max_size=max_slots)),
        fifo=draw(st.booleans()),
    )


def _build(case: _Case) -> tuple[Session, int]:
    """A session in the case's state; returns it and the first slot."""
    session = Session(0)
    channels = session.channels
    stamp = 0
    for gap, bits in case.overflow:
        stamp += gap
        if bits > 0:
            session.push(stamp, bits)
    channels.move_regular_to_overflow()
    for gap, bits in case.regular:
        stamp += gap
        if bits > 0:
            session.push(stamp, bits)
    channels.regular_link.set(0, case.regular_bandwidth)
    overflow = case.overflow_bandwidth
    if isinstance(overflow, int):
        overflow = channels.overflow_queue.size / overflow
    channels.overflow_link.set(0, overflow)
    session.max_delay = case.max_delay
    return session, stamp + case.gap


def _stops(session, slot, bits, limit, phase) -> bool:
    """Whether a local event comes at ``slot``: with ``phase``, a phase end
    finding the regular queue above ``limit``; without, a TEST after
    pushing ``bits`` (tried on a copy)."""
    if phase is not None:
        first, period = phase
        on_phase_end = slot >= first and (slot - first) % period == 0
        return on_phase_end and session.channels.regular_queue.size > limit
    if bits <= 0:
        return False
    trial = copy.deepcopy(session)
    trial.push(slot, bits)
    return trial.channels.regular_queue.size > limit


def _oracle(session, t, arrivals, fifo, limit=math.inf, phase=None):
    """The per-slot loop a scalar ``PhasedMultiSession.step`` ran, up to
    the first local event, on the serve path before the kernel."""
    delivered, backlog = [], []
    for i, bits in enumerate(arrivals):
        if _stops(session, t + i, bits, limit, phase):
            break
        if bits > 0:
            session.push(t + i, bits)
        result = channels_serve(session.channels, t + i, fifo=fifo)
        account(session, result)
        fold(session.histogram, result)
        delivered.append(result.bits)
        backlog.append(session.backlog)
    return delivered, backlog


def replay_session(session, t, arrivals, fifo, limit=math.inf, phase=None):
    """``replay_fifo`` for ``session`` as the engine's lanes call it, at
    the session's current capacities; the columns come back as lists."""
    channels = session.channels
    capacity, overflow_capacity = channels.capacities(fifo)
    delivered, backlog = replay_fifo(
        t,
        arrivals,
        channels.regular_queue,
        capacity,
        session.histogram,
        overflow=channels.overflow_queue,
        overflow_capacity=overflow_capacity,
        session=session,
        limit=limit,
        phase=phase,
    )
    return delivered, backlog


def _hex(values):
    return [float(v).hex() for v in values]


def _state(session):
    """Everything the replay must leave bit-identical."""
    channels = session.channels
    return {
        "histogram": [(d, b.hex()) for d, b in session.histogram.items()],
        "arrived": session.bits_arrived.hex(),
        "delivered": session.bits_delivered.hex(),
        "max_delay": session.max_delay,
        "regular": [(a, b.hex()) for a, b in queue_chunks(channels.regular_queue)],
        "overflow": [(a, b.hex()) for a, b in queue_chunks(channels.overflow_queue)],
        "regular_size": channels.regular_queue._size.hex(),
        "overflow_size": channels.overflow_queue._size.hex(),
    }


def _assert_replay_matches_oracle(case: _Case, histogram=None, limit=math.inf, phase=None):
    """``phase`` is ``(offset, period)``: phase ends at ``t + offset + m·period``;
    both sessions start from ``histogram``."""
    reference, t = _build(case)
    reference.histogram = dict(histogram or {})
    if phase is not None:
        phase = (t + phase[0], phase[1])
    expected = _oracle(reference, t, case.arrivals, case.fifo, limit, phase)
    session, _ = _build(case)
    session.histogram = dict(histogram or {})
    got = replay_session(session, t, case.arrivals, case.fifo, limit, phase)
    assert _hex(got[0]) == _hex(expected[0])
    assert _hex(got[1]) == _hex(expected[1])
    assert _state(session) == _state(reference)
    return got


_SETTINGS = settings(max_examples=FUZZ_EXAMPLES, deadline=None)


class TestReplay:
    """``replay_fifo`` on a session is the per-slot loop, bit for bit."""

    @given(case=_cases())
    @_SETTINGS
    def test_matches_per_slot_oracle(self, case):
        _assert_replay_matches_oracle(case, histogram={0: 0.1, 1: 0.7, 3: 1e-3})

    @given(case=_cases(), cut=st.integers(0, 40))
    @_SETTINGS
    def test_split_calls_match_one_call(self, case, cut):
        whole, t = _build(case)
        columns = replay_session(whole, t, case.arrivals, case.fifo)
        split, _ = _build(case)
        cut = min(cut, len(case.arrivals))
        head = replay_session(split, t, case.arrivals[:cut], case.fifo)
        tail = replay_session(split, t + cut, case.arrivals[cut:], case.fifo)
        assert _hex(head[0] + tail[0]) == _hex(columns[0])
        assert _hex(head[1] + tail[1]) == _hex(columns[1])
        assert _state(split) == _state(whole)

    @pytest.mark.parametrize("fifo", [False, True])
    def test_dust_arrivals_count_but_never_queue(self, fifo):
        case = _Case([], [], 1.0, 0.0, 0, 0, [EPSILON / 2, EPSILON, 0.0, 2 * EPSILON], fifo)
        delivered, _ = _assert_replay_matches_oracle(case)
        assert delivered == [0.0, 0.0, 0.0, 2 * EPSILON]

    @pytest.mark.parametrize("fifo", [False, True])
    def test_zero_bandwidths_hold_the_backlog(self, fifo):
        case = _Case([(0, 3.0)], [(1, 2.0)], 0.0, 0.0, 1, 0, [1.5, 0.0, 4.0], fifo)
        delivered, backlog = _assert_replay_matches_oracle(case)
        assert delivered == [0.0, 0.0, 0.0]
        assert backlog == [6.5, 6.5, 10.5]

    @pytest.mark.parametrize("fifo", [False, True])
    def test_overflow_drains_with_sub_epsilon_residue(self, fifo):
        # Sized to drain in 3 slots: size / 3 summed back leaves float
        # residue, which the dust clear must drop.
        case = _Case([(0, 1.0), (1, 0.1), (1, 0.7)], [(1, 0.3)], 0.05, 3, 0, 0, [0.0] * 8, fifo)
        _assert_replay_matches_oracle(case)

    @pytest.mark.parametrize("queue", ["overflow", "regular"])
    def test_dust_chunk_behind_an_absorbing_size_is_cleared(self, queue):
        # 2e-9 vanishes into a 5e7-bit size: after the 5e7 chunk goes, the
        # queue holds a 2e-9 chunk but a 0.0 size, and must empty.
        pushes = [(0, 5e7), (1, 2 * EPSILON)]
        overflow, regular = (pushes, []) if queue == "overflow" else ([], pushes)
        case = _Case(overflow, regular, 5e7, 5e7, 0, 0, [0.0, 0.0, 0.0], False)
        delivered, backlog = _assert_replay_matches_oracle(case)
        assert delivered == [5e7, 0.0, 0.0]
        assert backlog == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("fifo", [False, True])
    def test_chunk_splits_and_same_slot_merges(self, fifo):
        # Arrivals merge into the regular queue's newest chunk (gap 0) and
        # partial service splits chunks across slots.
        arrivals = [2.0, 0.5, 3.0, 0.0, 0.0]
        case = _Case([(0, 5.0)], [(2, 3.0), (1, 4.0)], 1.25, 2.0, 0, 0, arrivals, fifo)
        _assert_replay_matches_oracle(case)

    def test_same_delay_from_both_queues_folds_overflow_first(self):
        # Both queues hold slot-0 bits, so one slot delivers delay 2 from
        # each; the bin's sum depends on the fold order.
        case = _Case([(0, 0.2)], [(0, 0.6)], 0.6, 0.2, 2, 0, [0.0], False)
        _assert_replay_matches_oracle(case, {2: 0.1})
        reference, t = _build(case)
        reference.histogram = {2: 0.1}
        replay_session(reference, t, case.arrivals, False)
        assert reference.histogram[2] == (0.1 + 0.2) + 0.6 != (0.1 + 0.6) + 0.2

    @pytest.mark.parametrize("fifo", [False, True])
    def test_long_keepup_stretches_with_dust(self, fifo):
        # Empty queues under the allocation for 80 slots (committed in
        # bulk), a burst that backlogs, then a second quiet stretch: dust
        # counts as arrived but is never delivered.
        arrivals = [1.0, EPSILON / 2, 0.0, 2 * EPSILON, 3.5] * 16 + [9.0, 0.5] + [0.25] * 40
        case = _Case([], [], 4.0, 0.0, 0, 0, arrivals, fifo)
        delivered, backlog = _assert_replay_matches_oracle(case, histogram={0: 0.1})
        assert len(delivered) == len(arrivals)
        assert backlog[80] > 0.0 and backlog[-1] == 0.0

    @pytest.mark.parametrize("fifo", [False, True])
    def test_phase_ends_inside_keepup_stretches_then_a_stop(self, fifo):
        # Phase ends every 8 slots from slot 3 fall inside two quiet
        # stretches (committed in bulk) split by a burst that drains below
        # the limit by the phase end at 43; the second burst is still above
        # it at the phase end at 91, which stops the replay.
        arrivals = [1.0] * 40 + [20.0, 0.0, 0.0] + [1.0] * 40 + [60.0] + [1.0] * 20
        case = _Case([], [], 4.0, 0.0, 0, 0, arrivals, fifo)
        delivered, _ = _assert_replay_matches_oracle(case, limit=16.0 + EPSILON, phase=(3, 8))
        assert len(delivered) == 91

    @given(
        case=_cases(max_slots=80),
        limit=st.sampled_from([0.0, 1.0, 6.0, 30.0]),
        phase=st.one_of(st.none(), st.tuples(st.integers(0, 9), st.integers(1, 8))),
    )
    @_SETTINGS
    def test_stops_before_the_first_local_event(self, case, limit, phase):
        # The policies' limits are B_i^r·D_O + EPSILON, so at least EPSILON.
        delivered, _ = _assert_replay_matches_oracle(
            case, histogram={0: 0.1}, limit=limit + EPSILON, phase=phase
        )
        assert len(delivered) <= len(case.arrivals)

    def test_phase_end_stop_reads_the_queue_before_the_push(self):
        # 5 queued bits against a limit of 4: the phase end at the first
        # slot stops the replay at once; without it, the slots run.
        case = _Case([], [(0, 5.0)], 0.0, 0.0, 1, 0, [0.0, 0.0], False)
        assert _assert_replay_matches_oracle(case, limit=4.0, phase=(0, 8))[0] == []
        assert len(_assert_replay_matches_oracle(case, limit=4.0, phase=(1, 8))[0]) == 1

    def test_test_stop_reads_the_queue_after_the_push(self):
        case = _Case([], [], 1.0, 0.0, 0, 0, [1.0, 3.0, 9.0, 0.0], False)
        delivered, _ = _assert_replay_matches_oracle(case, limit=8.0 + EPSILON)
        assert delivered == [1.0, 1.0]  # 2 queued + 9 pushed > 8 stops slot 2

    @pytest.mark.parametrize("fifo", [False, True])
    def test_max_delay_tracks_the_oldest_served_bit(self, fifo):
        case = _Case([(0, 4.0)], [(3, 4.0)], 1.0, 1.0, 2, 1, [1.0] * 6, fifo)
        _assert_replay_matches_oracle(case)
        session, t = _build(case)
        replay_session(session, t, case.arrivals, fifo)
        assert session.max_delay > case.max_delay
