"""Policy-quiet slices are invisible: bit-identity against the all-scalar run.

A slice advances Figure 3 (or a primed static allocation) through many
slots with one :meth:`StageKernel.scan` search and one
:func:`~repro.network.queue.replay_fifo` call, backlog or not.  Every recorded float must equal
the all-scalar run's: every trace column, the delay histogram, changes,
stage starts and resets.  The streams below are chosen to keep the queue
backlogged, to force RESET drains, to put events on galloping-window
edges, to slice the run arbitrarily through ``feed``/``step``, and to mix
in fault plans; hypothesis budgets follow ``REPRO_FUZZ_EXAMPLES``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.baselines import StaticAllocator
from repro.core.single_session import SingleSessionOnline
from repro.faults import standard_plan
from repro.sim import vector
from repro.sim.engine import run_single_session
from repro.sim.vector import EngineState
from tests.references import scalar_reference
from tests.strategies import FUZZ_EXAMPLES, seeds

_SETTINGS = settings(max_examples=FUZZ_EXAMPLES, deadline=None)

_COLUMNS = (
    "arrivals", "allocation", "delivered", "backlog", "dropped", "requested", "effective",
)


def _policy():
    return SingleSessionOnline(
        max_bandwidth=64, offline_delay=8, offline_utilization=0.25, window=16
    )


def _assert_identical(first, second):
    for name in _COLUMNS:
        np.testing.assert_array_equal(getattr(first, name), getattr(second, name), err_msg=name)
    assert first.delay_histogram == second.delay_histogram
    assert first.changes == second.changes
    assert first.stage_starts == second.stage_starts
    assert first.resets == second.resets
    assert first.horizon == second.horizon


def _bursty(seed: int, horizon: int) -> np.ndarray:
    """On/off blocks whose bursts run far above the allocation."""
    rng = np.random.default_rng(seed)
    out = []
    while sum(len(block) for block in out) < horizon:
        length = int(rng.integers(5, 400))
        rate = rng.choice([0.0, rng.uniform(0.5, 6.0), rng.uniform(20.0, 90.0)])
        # Fractional bits: integer counts would sum exactly in any order.
        out.append(rng.poisson(rate, size=length) * rng.uniform(0.6, 1.4, size=length))
    return np.concatenate(out)[:horizon]


def _reset_heavy(seed: int, horizon: int) -> np.ndarray:
    """Long quiet stretches broken by bursts: stages end, RESET drains."""
    rng = np.random.default_rng(seed)
    arrivals = rng.uniform(0.0, 2.0, size=horizon)
    for start in rng.integers(0, horizon, size=max(1, horizon // 300)):
        arrivals[start : start + int(rng.integers(1, 30))] += rng.uniform(40.0, 200.0)
    return arrivals


class TestBacklogged:
    @_SETTINGS
    @given(seed=seeds, horizon=st.integers(1, 3000))
    def test_bursty_streams(self, seed, horizon):
        arrivals = _bursty(seed, horizon)
        _assert_identical(
            run_single_session(_policy(), arrivals),
            run_single_session(scalar_reference(_policy()), arrivals),
        )

    @_SETTINGS
    @given(seed=seeds, horizon=st.integers(1, 3000))
    def test_reset_drains(self, seed, horizon):
        arrivals = _reset_heavy(seed, horizon)
        _assert_identical(
            run_single_session(_policy(), arrivals),
            run_single_session(scalar_reference(_policy()), arrivals),
        )

    @_SETTINGS
    @given(seed=seeds, bandwidth=st.sampled_from([0.5, 3.0, 7.0, 1e-10]))
    def test_static_allocator_backlogged(self, seed, bandwidth):
        arrivals = _bursty(seed, 1500)
        _assert_identical(
            run_single_session(StaticAllocator(bandwidth), arrivals, drain=False),
            run_single_session(scalar_reference(StaticAllocator(bandwidth)), arrivals, drain=False),
        )

    def test_slices_cover_backlogged_slots(self, bulk_commits):
        arrivals = _bursty(5, 20_000)
        trace = run_single_session(_policy(), arrivals)
        assert (trace.backlog[: trace.horizon] > 0).mean() > 0.2
        assert sum(bulk_commits) > 0.9 * trace.horizon


class TestGallopEdges:
    """Events landing on, just before and just after a window edge."""

    @pytest.mark.parametrize("shift", [-1, 0, 1])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_event_on_first_window_edge(self, monkeypatch, seed, shift):
        arrivals = _bursty(seed, 2000)
        reference = run_single_session(scalar_reference(_policy()), arrivals)
        # The first event after the first stage start, seen from the slot
        # where the first slice starts.
        start = reference.stage_starts[0] + 1
        events = [c.t for c in reference.changes] + reference.resets + reference.stage_starts
        event = min(t for t in events if t >= start)
        window = max(1, event - start + shift)
        monkeypatch.setattr(vector, "_FIRST_WINDOW", window)
        _assert_identical(run_single_session(_policy(), arrivals), reference)

    @_SETTINGS
    @given(seed=seeds, window=st.integers(1, 9))
    def test_dense_window_edges(self, seed, window):
        arrivals = _bursty(seed, 1200)
        reference = run_single_session(scalar_reference(_policy()), arrivals)
        previous = vector._FIRST_WINDOW
        vector._FIRST_WINDOW = window
        try:
            _assert_identical(run_single_session(_policy(), arrivals), reference)
        finally:
            vector._FIRST_WINDOW = previous


class TestFeedStepSlicing:
    @_SETTINGS
    @given(
        seed=seeds,
        feeds=st.lists(st.integers(1, 5000), min_size=1, max_size=6),
        steps=st.lists(st.integers(1, 5000), min_size=1, max_size=8),
    )
    def test_arbitrary_slicing(self, seed, feeds, steps):
        arrivals = _bursty(seed, sum(feeds))
        reference = run_single_session(scalar_reference(_policy()), arrivals)
        state = EngineState(_policy(), closed=False)
        at = 0
        for i, size in enumerate(feeds):
            state.feed(arrivals[at : at + size])
            at += size
            state.step(steps[i % len(steps)])
        state.close()
        state.run()
        _assert_identical(state.finalize(), reference)


class TestFaults:
    @_SETTINGS
    @given(seed=seeds, intensity=st.sampled_from([0.3, 0.7, 1.0]))
    def test_standard_plans(self, seed, intensity):
        arrivals = _bursty(seed % 1000, 1500)
        plan = standard_plan(intensity, len(arrivals), seed=seed)
        _assert_identical(
            run_single_session(_policy(), arrivals, faults=plan),
            run_single_session(scalar_reference(_policy()), arrivals, faults=plan),
        )
