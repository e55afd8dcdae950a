"""Streaming engine API tests: ``EngineState.step`` / ``feed`` / ``close``.

The incremental engine's contract is that *how* a run is advanced —
one giant ``step``, thousands of tiny ones, arrivals fed in pieces —
never changes the resulting trace.  These tests pin that invariance,
the ``done``/``horizon`` bookkeeping, and that a trace finalized mid-run
stays fixed while the engine runs on.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.phased import PhasedMultiSession
from repro.core.single_session import SingleSessionOnline
from repro.errors import ConfigError, SimulationError
from repro.sim.engine import run_single_session
from repro.sim.vector import EngineState, MultiEngineState
from repro.verify.certificates import certify, raw_single_bounds
from tests.strategies import FUZZ_EXAMPLES

_SETTINGS = settings(max_examples=min(FUZZ_EXAMPLES, 50), deadline=None)


def _policy():
    return SingleSessionOnline(
        max_bandwidth=64, offline_delay=8, offline_utilization=0.25, window=16
    )


def _stream(horizon=1200, seed=13):
    return np.random.default_rng(seed).poisson(6, size=horizon).astype(float)


def _assert_identical(first, second):
    np.testing.assert_array_equal(first.arrivals, second.arrivals)
    np.testing.assert_array_equal(first.allocation, second.allocation)
    np.testing.assert_array_equal(first.delivered, second.delivered)
    np.testing.assert_array_equal(first.backlog, second.backlog)
    assert first.delay_histogram == second.delay_histogram
    assert first.changes == second.changes


class TestStepChunking:
    def test_step_counts(self):
        state = EngineState(_policy(), _stream())
        assert state.step(100) == 100
        assert state.t == 100
        assert not state.done

    @pytest.mark.parametrize("chunk", [1, 7, 64, 10_000])
    def test_chunking_invariance(self, chunk):
        for arrivals in (_stream(), _stream(seed=11), _stream(4000)):
            reference = run_single_session(_policy(), arrivals)
            state = EngineState(_policy(), arrivals)
            while not state.done:
                state.step(chunk)
            _assert_identical(state.finalize(), reference)

    @_SETTINGS
    @given(st.lists(st.integers(min_value=1, max_value=500), min_size=1))
    def test_random_chunking(self, chunks):
        arrivals = _stream(horizon=600, seed=3)
        reference = run_single_session(_policy(), arrivals)
        state = EngineState(_policy(), arrivals)
        for chunk in chunks:
            state.step(chunk)
        while not state.done:
            state.step(100)
        _assert_identical(state.finalize(), reference)

    def test_finalize_midway_is_a_prefix(self):
        arrivals = _stream(seed=5)
        reference = run_single_session(_policy(), arrivals)
        state = EngineState(_policy(), arrivals)
        state.step(500)
        partial = state.finalize()
        np.testing.assert_array_equal(
            partial.allocation, reference.allocation[:500]
        )
        np.testing.assert_array_equal(partial.backlog, reference.backlog[:500])


class TestFeedClose:
    def test_feed_then_close_matches_one_shot(self):
        arrivals = _stream(seed=7)
        reference = run_single_session(_policy(), arrivals)
        state = EngineState(_policy(), closed=False)
        for start in range(0, len(arrivals), 100):
            state.feed(arrivals[start : start + 100])
            state.step(1_000_000)
        state.close()
        state.run()
        _assert_identical(state.finalize(), reference)

    def test_feeds_reallocate_logarithmically(self):
        """N feeds grow the arrival buffer O(log N) times, never per feed."""
        state = EngineState(_policy(), closed=False)
        buffers = []
        feeds = 4096
        for i in range(feeds):
            state.feed(np.full(10, float(i % 7)))
            if not buffers or state._arrivals._data is not buffers[-1]:
                buffers.append(state._arrivals._data)
        assert len(buffers) <= np.log2(feeds * 10) + 2
        expected = np.repeat(np.arange(feeds) % 7, 10).astype(float)
        np.testing.assert_array_equal(state._arrivals.view, expected)

    def test_feeding_never_writes_into_the_callers_array(self):
        initial = np.array([1.0, 2.0, 3.0])
        state = EngineState(_policy(), initial, closed=False)
        state.feed([4.0, 5.0])
        np.testing.assert_array_equal(initial, [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(state._arrivals.view, [1.0, 2.0, 3.0, 4.0, 5.0])

    def test_step_stops_at_open_horizon(self):
        state = EngineState(_policy(), [1.0, 2.0], closed=False)
        assert state.step(100) == 2
        assert not state.done
        state.close()
        state.run()
        assert state.done

    def test_feed_after_close_rejected(self):
        state = EngineState(_policy(), [1.0])
        with pytest.raises(ConfigError, match="closed"):
            state.feed([2.0])

    def test_feed_validates(self):
        state = EngineState(_policy(), closed=False)
        with pytest.raises(ConfigError, match="non-negative"):
            state.feed([-1.0])
        with pytest.raises(ConfigError, match="finite"):
            state.feed([float("nan")])

    def test_drain_cap_raises(self):
        state = EngineState(
            _policy(), [1e9], max_drain_slots=3, queue_capacity=None
        )
        with pytest.raises(SimulationError, match="drain"):
            state.run()


class TestFinalizeSnapshot:
    """A trace finalized mid-run does not change when the engine runs on."""

    def test_single_session(self):
        arrivals = np.random.default_rng(0).uniform(0, 20, 4000)
        state = EngineState(_policy(), arrivals)
        state.step(2000)
        partial = state.finalize()
        histogram = dict(partial.delay_histogram)
        bounds = raw_single_bounds(64, 8)
        assert certify(partial, bounds).certified
        state.run()
        assert partial.delay_histogram == histogram
        assert certify(partial, bounds).certified

    def test_multi_session(self):
        arrivals = np.random.default_rng(1).uniform(0, 6, (1200, 3))
        policy = PhasedMultiSession(3, offline_bandwidth=16.0, offline_delay=8)
        state = MultiEngineState(policy, arrivals)
        state.step(600)
        partial = state.finalize()
        histograms = [dict(h) for h in partial.delay_histograms]
        state.run()
        assert partial.delay_histograms == histograms
