"""Tests for the FIFO bit queue: conservation, ordering, delay accounting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, SimulationError
from repro.network.queue import EPSILON, BitQueue
from tests.references import queue_chunks


class TestBasics:
    def test_empty(self):
        q = BitQueue()
        assert q.is_empty
        assert q.size == 0.0
        assert q.oldest_arrival is None
        assert q.max_age(10) == 0

    def test_push_and_size(self):
        q = BitQueue()
        q.push(0, 5)
        q.push(1, 3)
        assert q.size == 8
        assert q.oldest_arrival == 0

    def test_push_negative_raises(self):
        with pytest.raises(ConfigError):
            BitQueue().push(0, -1)

    def test_push_nan_raises(self):
        # NaN fails `bits < 0` too: it used to enqueue a chunk that `size`
        # hid (the queue read empty while holding a NaN).
        q = BitQueue()
        with pytest.raises(ConfigError):
            q.push(0, float("nan"))
        assert queue_chunks(q) == []

    def test_push_dust_ignored(self):
        q = BitQueue()
        q.push(0, EPSILON / 10)
        assert q.is_empty

    def test_push_out_of_order_raises(self):
        q = BitQueue()
        q.push(5, 1)
        with pytest.raises(SimulationError):
            q.push(3, 1)

    def test_same_slot_merges(self):
        q = BitQueue()
        q.push(2, 1)
        q.push(2, 2)
        assert queue_chunks(q) == [(2, 3.0)]


class TestServe:
    def test_serve_negative_capacity_raises(self):
        with pytest.raises(ConfigError):
            BitQueue().serve(0, -1, {})

    def test_serve_nan_capacity_raises(self):
        # A NaN capacity used to serve nothing without a word.
        q = BitQueue()
        q.push(0, 4)
        with pytest.raises(ConfigError):
            q.serve(0, float("nan"), {})
        assert q.size == 4

    def test_fifo_order_and_delays(self):
        q = BitQueue()
        q.push(0, 4)
        q.push(1, 4)
        histogram = {}
        assert q.serve(2, 6, histogram) == 6
        # Delays 2 and 1 are arrivals 0 and 1, in delivery order.
        assert list(histogram.items()) == [(2, 4.0), (1, 2.0)]
        assert max(histogram) == 2
        assert q.size == 2

    def test_serve_empty(self):
        histogram = {}
        assert BitQueue().serve(0, 10, histogram) == 0
        assert histogram == {}

    def test_partial_chunk_preserves_stamp(self):
        q = BitQueue()
        q.push(0, 10)
        q.serve(1, 4, {})
        assert queue_chunks(q) == [(0, pytest.approx(6.0))]
        histogram = {}
        q.serve(5, 100, histogram)
        assert max(histogram) == 5

    def test_max_age(self):
        q = BitQueue()
        q.push(3, 1)
        assert q.max_age(10) == 7


class TestDrain:
    def test_drain_to(self):
        a, b = BitQueue("a"), BitQueue("b")
        a.push(0, 2)
        a.push(1, 3)
        moved = a.drain_to(b)
        assert moved == 5
        assert a.is_empty
        assert queue_chunks(b) == [(0, 2.0), (1, 3.0)]

    def test_drain_preserves_order_with_existing(self):
        a, b = BitQueue("a"), BitQueue("b")
        b.push(0, 1)
        a.push(2, 1)
        a.drain_to(b)
        assert [c[0] for c in queue_chunks(b)] == [0, 2]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=100),
            st.floats(min_value=0, max_value=100),
        ),
        min_size=1,
        max_size=100,
    )
)
def test_conservation_property(slots):
    """Bits in == bits out + backlog, and FIFO deliveries never reorder."""
    q = BitQueue()
    total_in = 0.0
    total_out = 0.0
    last_arrival_served = -1
    for t, (bits, capacity) in enumerate(slots):
        q.push(t, bits)
        total_in += bits if bits > EPSILON else 0.0
        histogram = {}
        total_out += q.serve(t, capacity, histogram)
        for delay in histogram:  # delivery order
            assert t - delay >= last_arrival_served
            last_arrival_served = t - delay
            assert delay >= 0
    assert total_in == pytest.approx(total_out + q.size, rel=1e-9, abs=1e-6)


def test_chunk_pop_dust_does_not_stall_drain():
    """Regression: serving just under a chunk's size pops it while leaving
    up to EPSILON of untracked ``_size`` behind; enough pops used to
    accumulate dust above EPSILON with no chunks left, so ``is_empty``
    stayed False forever and drain loops span until their hard cap."""
    q = BitQueue()
    dust = EPSILON / 2
    for t in range(4):
        q.push(t, 1.0)
        q.serve(t, 1.0 - dust, {})  # pops the chunk, strands `dust` bits
    assert not queue_chunks(q)
    assert q.is_empty
    assert q.size == 0.0
