"""``replay_fifo`` and ``simulate_fifo_delay`` against per-slot oracles.

The oracle is the per-slot ``push``/``serve`` loop ``simulate_fifo_delay``
ran before it moved onto the fused replay, on the serve path from before
the FIFO serve kernel (``tests/network/test_serve_oracle.py``), which
builds a ``ServeResult`` per slot.  Both must agree exactly: max delay,
leftover bits, and for the replay itself every per-slot delivery, backlog
and histogram float.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.feasibility import simulate_fifo_delay
from repro.errors import ConfigError, SimulationError
from repro.network.queue import EPSILON, BitQueue, replay_fifo
from tests.network.test_serve_oracle import fold, queue_serve
from tests.references import queue_chunks
from tests.strategies import FUZZ_EXAMPLES

_SETTINGS = settings(max_examples=FUZZ_EXAMPLES, deadline=None)


def oracle_fifo_delay(arrivals, capacities):
    """The per-slot loop ``simulate_fifo_delay`` used to run."""
    if len(arrivals) != len(capacities):
        raise ConfigError("arrivals and capacities must have equal length")
    queue = BitQueue("oracle")
    max_delay = 0
    for t in range(len(arrivals)):
        queue.push(t, float(arrivals[t]))
        result = queue_serve(queue, t, float(capacities[t]))
        if result.deliveries:
            max_delay = max(max_delay, result.max_delay)
    if not queue.is_empty:
        oldest = queue.oldest_arrival
        if oldest is not None:
            max_delay = max(max_delay, len(arrivals) - oldest)
    return max_delay, queue.size


def oracle_replay(queue, t, arrivals, capacities, histogram, until_empty=False):
    """Per-slot ``push``/``serve`` with the engine's histogram fold."""
    delivered, backlog = [], []
    for i, bits in enumerate(arrivals):
        if until_empty and queue.is_empty:
            break
        queue.push(t + i, float(bits))
        result = queue_serve(queue, t + i, float(capacities[i]))
        fold(histogram, result)
        delivered.append(result.bits)
        backlog.append(queue.size)
    return delivered, backlog


#: Per-slot values mixing dust (<= EPSILON), exact zeros and real bits.
_bits = st.one_of(
    st.just(0.0),
    st.just(EPSILON),
    st.floats(min_value=0.0, max_value=EPSILON),
    st.floats(min_value=0.0, max_value=40.0),
)


@st.composite
def _streams(draw, max_slots: int = 120):
    n = draw(st.integers(0, max_slots))
    arrivals = draw(st.lists(_bits, min_size=n, max_size=n))
    capacities = draw(st.lists(_bits, min_size=n, max_size=n))
    return np.array(arrivals, dtype=float), np.array(capacities, dtype=float)


class TestSimulateFifoDelay:
    @_SETTINGS
    @given(_streams())
    def test_matches_the_per_slot_oracle(self, stream):
        arrivals, capacities = stream
        assert simulate_fifo_delay(arrivals, capacities) == oracle_fifo_delay(arrivals, capacities)

    @_SETTINGS
    @given(seed=st.integers(0, 2**31), n=st.integers(1, 3000))
    def test_long_random_profiles(self, seed, n):
        rng = np.random.default_rng(seed)
        arrivals = rng.poisson(rng.uniform(0.5, 8.0), size=n) * rng.uniform(0.1, 2.0, size=n)
        capacities = np.repeat(rng.uniform(0.0, 10.0, size=n // 50 + 1), 50)[:n]
        assert simulate_fifo_delay(arrivals, capacities) == oracle_fifo_delay(arrivals, capacities)

    def test_dust_arrivals_are_never_queued(self):
        arrivals = np.full(50, EPSILON)
        assert simulate_fifo_delay(arrivals, np.zeros(50)) == (0, 0.0)
        assert oracle_fifo_delay(arrivals, np.zeros(50)) == (0, 0.0)

    def test_zero_capacities_leave_everything_queued(self):
        arrivals = np.array([3.0, 0.0, 2.0])
        expected = oracle_fifo_delay(arrivals, np.zeros(3))
        assert simulate_fifo_delay(arrivals, np.zeros(3)) == expected == (3, 5.0)

    @pytest.mark.parametrize(
        "arrivals, capacities",
        [([1.0, -0.5], [1.0, 1.0]), ([1.0, 1.0], [1.0, -1.0]), ([1.0], [1.0, 1.0])],
    )
    def test_rejects_bad_input(self, arrivals, capacities):
        with pytest.raises(ConfigError):
            oracle_fifo_delay(arrivals, capacities)
        with pytest.raises(ConfigError):
            simulate_fifo_delay(np.array(arrivals), np.array(capacities))


class TestReplay:
    @_SETTINGS
    @given(_streams(), st.integers(0, 5), st.booleans(), st.booleans())
    def test_matches_push_then_serve(self, stream, preload, constant, until_empty):
        arrivals, capacities = stream
        if constant and len(capacities):
            capacities = np.full(len(arrivals), capacities[0])
        fast, slow = BitQueue(), BitQueue()
        for queue in (fast, slow):  # a backlog carried into the run
            for t in range(preload):
                queue.push(t, 7.5)
        fast_hist, slow_hist = {2: 0.25}, {2: 0.25}
        capacity = float(capacities[0]) if constant and len(capacities) else capacities
        delivered, backlog = replay_fifo(
            preload, arrivals, fast, capacity, fast_hist, until_empty=until_empty
        )
        want_delivered, want_backlog = oracle_replay(
            slow, preload, arrivals, capacities, slow_hist, until_empty
        )
        assert delivered == want_delivered
        assert backlog == want_backlog
        assert fast_hist == slow_hist
        assert queue_chunks(fast) == queue_chunks(slow)
        assert fast.size == slow.size
        assert fast._size == slow._size

    def test_empty_queue_prefix_then_backlog(self):
        arrivals = np.array([1.0, EPSILON, 2.0, 9.0, 0.5, 0.0])
        fast, slow = BitQueue(), BitQueue()
        fast_hist, slow_hist = {}, {}
        delivered, backlog = replay_fifo(10, arrivals, fast, 3.0, fast_hist)
        want = oracle_replay(slow, 10, arrivals, [3.0] * 6, slow_hist)
        assert (delivered, backlog) == want
        assert want == ([1.0, 0.0, 2.0, 3.0, 3.0, 3.0], [0.0, 0.0, 0.0, 6.0, 3.5, 0.5])
        assert fast_hist == slow_hist == {0: 6.0, 1: 3.0, 2: 3.0}

    @pytest.mark.parametrize("per_slot", [False, True])
    def test_keepup_stretches_between_backlogs(self, per_slot):
        """Long keep-up stretches (numpy) alternate with backlogs (per slot)."""
        rng = np.random.default_rng(3)
        pieces = []
        for _ in range(12):
            pieces.append(np.full(int(rng.integers(1, 6)), 30.0))  # backlog onset
            pieces.append(rng.uniform(0.0, 4.0, size=int(rng.integers(1, 120))))
            pieces.append(np.full(int(rng.integers(0, 40)), EPSILON))
        arrivals = np.concatenate(pieces)
        capacities = np.full(len(arrivals), 4.0)
        fast, slow = BitQueue(), BitQueue()
        fast_hist, slow_hist = {}, {}
        capacity = capacities if per_slot else 4.0
        delivered, backlog = replay_fifo(0, arrivals, fast, capacity, fast_hist)
        want_delivered, want_backlog = oracle_replay(slow, 0, arrivals, capacities, slow_hist)
        assert delivered == want_delivered
        assert backlog == want_backlog
        assert fast_hist == slow_hist
        assert queue_chunks(fast) == queue_chunks(slow)

    def test_a_split_leaving_dust_pops_the_chunk(self):
        """Serving all but < EPSILON of the head chunk pops it, as serve does."""
        arrivals = np.array([5.0, 3.0, 0.0, 0.0])
        capacities = np.array([0.0, 5.0 - 5e-10, 1.0, 1.0])
        fast, slow = BitQueue(), BitQueue()
        fast_hist, slow_hist = {}, {}
        delivered, backlog = replay_fifo(0, arrivals, fast, capacities, fast_hist)
        want = oracle_replay(slow, 0, arrivals, capacities, slow_hist)
        assert (delivered, backlog) == want
        assert fast_hist == slow_hist
        # Slot 2 serves the second chunk, not 5e-10 of dust left by slot 1.
        assert fast_hist[2] == 1.0
        assert queue_chunks(fast) == queue_chunks(slow) == [(1, 1.0)]

    def test_until_empty_stops_before_the_drained_slot(self):
        queue = BitQueue()
        queue.push(0, 10.0)
        delivered, backlog = replay_fifo(1, np.zeros(8), queue, 4.0, {}, until_empty=True)
        assert delivered == [4.0, 4.0, 2.0]
        assert backlog == [6.0, 2.0, 0.0]

    def test_rejects_a_bounded_queue(self):
        with pytest.raises(ConfigError):
            replay_fifo(0, np.ones(3), BitQueue(capacity=5.0), 1.0, {})

    def test_rejects_out_of_order_slots(self):
        queue = BitQueue()
        queue.push(5, 1.0)
        with pytest.raises(SimulationError, match="push at t=3"):
            replay_fifo(3, np.array([1.0]), queue, 0.0, {})
