"""Cross-component consistency: a recorded trace replays exactly.

The engine, the queues, and the standalone FIFO simulator in the
feasibility checker are three code paths over the same semantics.  These
tests feed a trace's recorded allocation series back through the
independent simulator and require bit-for-bit agreement — a strong guard
against drift between the components.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.baselines import EwmaAllocator, StaticAllocator
from repro.core.single_session import SingleSessionOnline
from repro.sim.engine import run_single_session
from repro.verify.certificates import lindley_backlog


def replay_backlog(trace) -> np.ndarray:
    """Re-derive the backlog series from arrivals + allocation alone."""
    return lindley_backlog(trace.arrivals, trace.allocation)


class TestReplayConsistency:
    @pytest.mark.parametrize(
        "policy_factory",
        [
            lambda: SingleSessionOnline(64, 4, 0.25, 8),
            lambda: StaticAllocator(6.0),
            lambda: EwmaAllocator(64.0, drain_delay=4),
        ],
        ids=["fig3", "static", "ewma"],
    )
    def test_backlog_replays_exactly(self, policy_factory):
        rng = np.random.default_rng(7)
        arrivals = rng.poisson(4, 400).astype(float)
        arrivals[100] += 120
        trace = run_single_session(policy_factory(), arrivals)
        np.testing.assert_allclose(
            replay_backlog(trace), trace.backlog, atol=1e-6
        )

    def test_delivered_matches_lindley_flow(self):
        rng = np.random.default_rng(8)
        arrivals = rng.poisson(3, 300).astype(float)
        trace = run_single_session(StaticAllocator(4.0), arrivals)
        # delivered[t] = arrivals[t] + backlog[t-1] - backlog[t]
        previous = np.concatenate([[0.0], trace.backlog[:-1]])
        flow = trace.arrivals + previous - trace.backlog
        np.testing.assert_allclose(trace.delivered, flow, atol=1e-6)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=100_000),
        rate=st.floats(min_value=0.5, max_value=15.0),
    )
    def test_replay_property(self, seed, rate):
        rng = np.random.default_rng(seed)
        arrivals = rng.poisson(rate, 200).astype(float)
        policy = SingleSessionOnline(
            max_bandwidth=64, offline_delay=4, offline_utilization=0.25, window=8
        )
        trace = run_single_session(policy, arrivals)
        np.testing.assert_allclose(
            replay_backlog(trace), trace.backlog, atol=1e-6
        )
        # Conservation closes exactly.
        assert trace.total_arrived == pytest.approx(
            trace.total_delivered + trace.backlog[-1], abs=1e-6
        )
