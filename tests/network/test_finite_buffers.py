"""Tests for the finite-buffer (data loss) extension."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.baselines import StaticAllocator
from repro.core.single_session import SingleSessionOnline
from repro.errors import ConfigError
from repro.network.queue import BitQueue
from repro.sim.engine import run_single_session


class TestQueueCapacity:
    def test_validation(self):
        with pytest.raises(ConfigError):
            BitQueue(capacity=-1)

    def test_unbounded_by_default(self):
        q = BitQueue()
        assert q.push(0, 1e9) == 0.0
        assert q.dropped == 0.0

    def test_tail_drop(self):
        q = BitQueue(capacity=10)
        assert q.push(0, 6) == 0.0
        assert q.push(1, 6) == pytest.approx(2.0)
        assert q.size == pytest.approx(10.0)
        assert q.dropped == pytest.approx(2.0)

    def test_full_queue_drops_everything(self):
        q = BitQueue(capacity=5)
        q.push(0, 5)
        assert q.push(1, 3) == pytest.approx(3.0)
        assert q.size == pytest.approx(5.0)

    def test_serving_frees_room(self):
        q = BitQueue(capacity=4)
        q.push(0, 4)
        q.serve(0, 3, {})
        assert q.push(1, 3) == 0.0
        assert q.size == pytest.approx(4.0)

    def test_zero_capacity_drops_all(self):
        q = BitQueue(capacity=0)
        assert q.push(0, 7) == pytest.approx(7.0)
        assert q.is_empty

    @settings(max_examples=100, deadline=None)
    @given(
        capacity=st.floats(min_value=0, max_value=50),
        slots=st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=30),
                st.floats(min_value=0, max_value=30),
            ),
            min_size=1,
            max_size=50,
        ),
    )
    def test_conservation_with_drops(self, capacity, slots):
        """offered == delivered + backlog + dropped, size <= capacity."""
        q = BitQueue(capacity=capacity)
        offered = 0.0
        delivered = 0.0
        for t, (bits, serve_cap) in enumerate(slots):
            if bits > 1e-9:
                offered += bits
            q.push(t, bits)
            assert q.size <= capacity + 1e-9
            delivered += q.serve(t, serve_cap, {})
        assert offered == pytest.approx(
            delivered + q.size + q.dropped, abs=1e-6
        )


class TestEngineWithCapacity:
    def test_trace_records_drops(self):
        arrivals = np.zeros(20)
        arrivals[0] = 50.0
        trace = run_single_session(
            StaticAllocator(2.0), arrivals, queue_capacity=10.0
        )
        assert trace.total_dropped == pytest.approx(40.0)
        assert trace.loss_rate == pytest.approx(0.8)
        assert trace.total_delivered == pytest.approx(10.0)
        assert trace.max_backlog <= 10.0

    def test_unbounded_has_zero_loss(self):
        rng = np.random.default_rng(0)
        trace = run_single_session(
            StaticAllocator(10.0), rng.poisson(5, 200).astype(float)
        )
        assert trace.total_dropped == 0.0
        assert trace.loss_rate == 0.0

    def test_claim2_cap_is_lossless_for_fig3(self):
        """A buffer of 2·B_A·D_O never drops under the online algorithm on
        any stream within the Claim 9 envelope (Claim 2's consequence)."""
        B_A, D_O = 64.0, 4
        rng = np.random.default_rng(1)
        arrivals = np.minimum(
            rng.poisson(8, 500).astype(float) * rng.pareto(2.0, 500),
            (1 + D_O) * B_A,
        )
        policy = SingleSessionOnline(
            max_bandwidth=B_A, offline_delay=D_O, offline_utilization=0.25, window=8
        )
        trace = run_single_session(
            policy, arrivals, queue_capacity=2 * B_A * D_O
        )
        assert trace.total_dropped == 0.0

    def test_loss_monotone_in_capacity(self):
        arrivals = np.zeros(100)
        arrivals[::10] = 80.0
        losses = []
        for capacity in (160.0, 80.0, 40.0, 20.0):
            trace = run_single_session(
                StaticAllocator(4.0), arrivals, queue_capacity=capacity
            )
            losses.append(trace.loss_rate)
        assert losses == sorted(losses)
