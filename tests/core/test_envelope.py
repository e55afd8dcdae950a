"""Tests for the low(t)/high(t) envelope trackers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.envelope import LowTracker
from repro.errors import ConfigError
from tests.references import HighTracker, NaiveLowTracker

arrivals_strategy = st.lists(
    st.floats(min_value=0, max_value=1e4), min_size=1, max_size=150
)


class TestLowTracker:
    def test_validation(self):
        with pytest.raises(ConfigError):
            LowTracker(0)
        tracker = LowTracker(2)
        with pytest.raises(ConfigError):
            tracker.push(-1)

    def test_single_burst(self):
        tracker = LowTracker(4)
        # Burst of 10 bits at the first slot: w=1 window -> 10/(1+4).
        assert tracker.push(10) == pytest.approx(2.0)
        # A silent slot: window of 2 -> 10/6 < 2, low unchanged.
        assert tracker.push(0) == pytest.approx(2.0)

    def test_monotone_within_stage(self):
        tracker = LowTracker(3)
        rng = np.random.default_rng(0)
        previous = 0.0
        for _ in range(100):
            low = tracker.push(float(rng.poisson(5)))
            assert low >= previous
            previous = low

    def test_reset(self):
        tracker = LowTracker(3)
        tracker.push(100)
        tracker.reset()
        assert tracker.low == 0.0
        assert tracker.slots_seen == 0

    def test_constant_rate_limit(self):
        # Constant rate r: low -> r * w/(w + D) -> r as the stage grows.
        tracker = LowTracker(2)
        for _ in range(500):
            tracker.push(6.0)
        assert 5.9 < tracker.low < 6.0

    @settings(max_examples=200, deadline=None)
    @given(arrivals_strategy, st.integers(min_value=1, max_value=20))
    def test_matches_naive(self, arrivals, delay):
        fast = LowTracker(delay)
        slow = NaiveLowTracker(delay)
        for bits in arrivals:
            got = fast.push(bits)
            want = slow.push(bits)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(
        arrivals_strategy,
        st.integers(min_value=1, max_value=10),
        st.integers(min_value=1, max_value=20),
    )
    def test_matches_naive_across_resets(self, arrivals, delay, reset_every):
        fast = LowTracker(delay)
        slow = NaiveLowTracker(delay)
        for i, bits in enumerate(arrivals):
            if i % reset_every == 0:
                fast.reset()
                slow.reset()
            assert fast.push(bits) == pytest.approx(
                slow.push(bits), rel=1e-9, abs=1e-9
            )


class TestHighTracker:
    def test_validation(self):
        with pytest.raises(ConfigError):
            HighTracker(0.5, 4, 0)
        with pytest.raises(ConfigError):
            HighTracker(1.5, 4, 8)
        with pytest.raises(ConfigError):
            HighTracker(0.5, 0, 8)

    def test_no_constraint(self):
        tracker = HighTracker(None, None, 16)
        for _ in range(10):
            assert tracker.push(100) == 16

    def test_warmup_is_max_bandwidth(self):
        tracker = HighTracker(0.5, 4, 32)
        for _ in range(3):
            assert tracker.push(1) == 32

    def test_window_bound(self):
        tracker = HighTracker(0.5, 4, 32)
        for _ in range(4):
            tracker.push(2)
        # IN = 8 over a window of 4 at U_O = 0.5 -> high = 8 / 2 = 4.
        assert tracker.high == pytest.approx(4.0)

    def test_monotone_decreasing(self):
        tracker = HighTracker(0.25, 4, 64)
        rng = np.random.default_rng(1)
        previous = 64.0
        for _ in range(100):
            high = tracker.push(float(rng.poisson(3)))
            assert high <= previous
            previous = high

    def test_reset_restores_max(self):
        tracker = HighTracker(0.5, 2, 32)
        tracker.push(1)
        tracker.push(1)
        assert tracker.high < 32
        tracker.reset()
        assert tracker.high == 32

    @settings(max_examples=100, deadline=None)
    @given(
        arrivals_strategy,
        st.integers(min_value=1, max_value=20),
        st.floats(min_value=0.05, max_value=1.0),
    )
    def test_matches_bruteforce(self, arrivals, window, utilization):
        tracker = HighTracker(utilization, window, 1e9)
        for t, bits in enumerate(arrivals):
            got = tracker.push(bits)
            if t + 1 < window:
                assert got == 1e9
            else:
                sums = [
                    sum(arrivals[e - window + 1 : e + 1])
                    for e in range(window - 1, t + 1)
                ]
                want = min(s / (utilization * window) for s in sums)
                assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


class TestEnvelopeInteraction:
    def test_stage_break_detectable(self):
        """A trickle followed by a huge burst forces high < low."""
        low = LowTracker(2)
        high = HighTracker(0.5, 4, 1e9)
        broke = False
        stream = [1.0] * 40 + [10000.0]
        for bits in stream:
            l = low.push(bits)
            h = high.push(bits)
            if h < l:
                broke = True
                break
        assert broke
