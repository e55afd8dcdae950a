"""Tests for the QoS metrics and for the Lemma 5 and Lindley measures
of :mod:`repro.verify.certificates` that the experiments report."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.metrics import (
    global_utilization,
    min_fixed_window_utilization,
    summarize_multi,
    summarize_single,
)
from repro.core.baselines import EqualSplitMultiSession, StaticAllocator
from repro.errors import ConfigError
from repro.sim.engine import run_multi_session, run_single_session
from repro.verify.certificates import (
    _DUST,
    lindley_backlog,
    min_existential_window_utilization,
)
from tests.strategies import FUZZ_EXAMPLES

_SETTINGS = settings(max_examples=FUZZ_EXAMPLES, deadline=None)


def _existential_loop(arrivals, allocation, max_window):
    """The per-slot scan ``min_existential_window_utilization`` used to run."""
    arrivals = np.asarray(arrivals, dtype=float)
    allocation = np.asarray(allocation, dtype=float)
    horizon = len(arrivals)
    in_prefix = np.concatenate([[0.0], np.cumsum(arrivals)])
    alloc_prefix = np.concatenate([[0.0], np.cumsum(allocation)])
    worst = float("inf")
    for t in range(1, horizon + 1):
        start = max(0, t - max_window)
        in_slice = in_prefix[t] - in_prefix[start:t]
        alloc_slice = alloc_prefix[t] - alloc_prefix[start:t]
        usable = alloc_slice > _DUST
        if not usable.any():
            continue
        best = float(np.max(in_slice[usable] / alloc_slice[usable]))
        if best < worst:
            worst = best
    return worst


def _backlog_loop(arrivals, capacities):
    """The numpy-scalar Lindley loop ``lindley_backlog`` replaced."""
    backlog = np.empty_like(arrivals)
    q = 0.0
    for t in range(len(arrivals)):
        q = max(0.0, q + arrivals[t] - capacities[t])
        backlog[t] = q
    return backlog


#: Per-slot allocations: zeros, values within 2 ulps of ``_DUST`` (the
#: usable-window threshold) and ordinary bandwidths.
_BELOW = float(np.nextafter(_DUST, 0))
_ABOVE = float(np.nextafter(_DUST, 1))
_NEAR_DUST = [
    float(np.nextafter(_BELOW, 0)),
    _BELOW,
    _DUST,
    _ABOVE,
    float(np.nextafter(_ABOVE, 1)),
]
_allocations = st.one_of(
    st.just(0.0),
    st.sampled_from(_NEAR_DUST),
    st.sampled_from([1.0, 2.0, 4.0, 8.0]),
    st.floats(min_value=0.0, max_value=16.0),
)
_arrivals = st.one_of(
    st.just(0.0),
    st.sampled_from(_NEAR_DUST),
    st.floats(min_value=0.0, max_value=32.0),
)


@st.composite
def _lemma5_cases(draw, max_slots: int = 80):
    n = draw(st.integers(1, max_slots))
    arrivals = draw(st.lists(_arrivals, min_size=n, max_size=n))
    allocation = draw(st.lists(_allocations, min_size=n, max_size=n))
    unallocated = draw(st.integers(0, n))  # a fully unallocated prefix
    allocation[:unallocated] = [0.0] * unallocated
    window = draw(st.integers(1, n + 8))  # both W <= T and W > T
    return np.array(arrivals), np.array(allocation), window


class TestGlobalUtilization:
    def test_basic(self):
        assert global_utilization(np.asarray([2.0, 2.0]), np.asarray([4.0, 4.0])) == 0.5

    def test_zero_allocation(self):
        assert global_utilization(np.asarray([1.0]), np.asarray([0.0])) == float("inf")


class TestFixedWindowUtilization:
    def test_picks_worst_window(self):
        arrivals = np.asarray([4.0, 4.0, 0.0, 0.0])
        allocation = np.asarray([4.0, 4.0, 4.0, 4.0])
        assert min_fixed_window_utilization(arrivals, allocation, 2) == 0.0

    def test_short_series_inf(self):
        assert min_fixed_window_utilization(np.ones(2), np.ones(2), 10) == float("inf")


class TestExistentialUtilization:
    def test_validation(self):
        with pytest.raises(ConfigError):
            min_existential_window_utilization(np.ones(4), np.ones(4), 0)

    def test_best_window_rescues_each_slot(self):
        # Slot 1 has zero arrivals, but the length-2 window ending there
        # still carries slot 0's arrivals.
        arrivals = np.asarray([8.0, 0.0])
        allocation = np.asarray([4.0, 4.0])
        worst = min_existential_window_utilization(arrivals, allocation, 2)
        assert worst == pytest.approx(1.0)  # window (0,2]: 8 in / 8 allocated

    def test_tighter_than_fixed_window_past_warmup(self):
        """For t >= W the best window ending at t is at least the full-W
        window, so with a fully-utilized warm-up prefix the existential
        minimum dominates the fixed-window minimum."""
        rng = np.random.default_rng(0)
        arrivals = rng.poisson(4, 200).astype(float)
        arrivals[:8] = 8.0  # warm-up slots run at full utilization
        allocation = np.full(200, 8.0)
        fixed = min_fixed_window_utilization(arrivals, allocation, 8)
        exist = min_existential_window_utilization(arrivals, allocation, 8)
        assert exist >= fixed - 1e-12

    @pytest.mark.parametrize(
        "arrivals, allocation",
        [
            (np.ones(5), np.ones(4)),  # arrivals longer: used to IndexError
            (np.ones(4), np.ones(5)),  # allocation tail used to be ignored
            (np.ones((2, 3)), np.ones((2, 3))),  # 2-D used to return 1.0
            (np.array([1.0, np.nan]), np.ones(2)),
            (np.ones(2), np.array([np.inf, 1.0])),
            (np.ones(2), np.array([1.0, np.nan])),
        ],
    )
    def test_rejects_bad_input(self, arrivals, allocation):
        with pytest.raises(ConfigError):
            min_existential_window_utilization(arrivals, allocation, 3)

    def test_all_zero_allocation_is_inf(self):
        worst = min_existential_window_utilization(np.ones(6), np.zeros(6), 3)
        assert worst == _existential_loop(np.ones(6), np.zeros(6), 3) == float("inf")

    def test_empty_series_is_inf(self):
        assert min_existential_window_utilization(np.array([]), np.array([]), 3) == float("inf")

    def test_skips_unallocated_prefix(self):
        arrivals = np.asarray([0.0, 4.0])
        allocation = np.asarray([0.0, 4.0])
        worst = min_existential_window_utilization(arrivals, allocation, 2)
        assert worst == pytest.approx(1.0)


class TestExistentialKernelMatchesLoop:
    """The per-width kernel returns the per-slot scan's float exactly."""

    @_SETTINGS
    @given(_lemma5_cases())
    def test_mixed_values(self, case):
        arrivals, allocation, window = case
        assert min_existential_window_utilization(
            arrivals, allocation, window
        ) == _existential_loop(arrivals, allocation, window)

    @_SETTINGS
    @given(seed=st.integers(0, 2**31), n=st.integers(1, 1500), window=st.integers(1, 120))
    def test_long_random_series(self, seed, n, window):
        rng = np.random.default_rng(seed)
        arrivals = rng.poisson(rng.uniform(0.5, 8.0), size=n) * rng.uniform(0.1, 2.0, size=n)
        levels = rng.choice([0.0, 1.0, 2.0, 4.0, 8.0], size=n // 40 + 1)
        allocation = np.repeat(levels, 40)[:n] * rng.uniform(0.5, 1.5)
        assert min_existential_window_utilization(
            arrivals, allocation, window
        ) == _existential_loop(arrivals, allocation, window)

    @pytest.mark.parametrize("window", [1, 3, 7, 50])  # W = 1, W < T, W = T, W > T
    def test_edges(self, window):
        rng = np.random.default_rng(window)
        arrivals = rng.uniform(0, 4, 7)
        for allocation in (
            np.full(7, 2.0),
            np.zeros(7),
            np.array([0.0, 0.0, 0.0, 1.0, 2.0, 0.0, 3.0]),
            np.array(_NEAR_DUST + [0.0, _DUST]),
        ):
            assert min_existential_window_utilization(
                arrivals, allocation, window
            ) == _existential_loop(arrivals, allocation, window)


class TestBacklogSeries:
    @_SETTINGS
    @given(seed=st.integers(0, 2**31), n=st.integers(0, 400))
    def test_matches_the_numpy_scalar_loop(self, seed, n):
        rng = np.random.default_rng(seed)
        arrivals = rng.poisson(3.0, size=n) * rng.uniform(0.1, 2.0, size=n)
        capacities = rng.uniform(0.0, 6.0, size=n)
        got = lindley_backlog(arrivals, capacities)
        assert got.dtype == np.float64
        assert got.tolist() == _backlog_loop(arrivals, capacities).tolist()

    def test_rejects_unequal_shapes(self):
        with pytest.raises(ConfigError):
            lindley_backlog(np.ones(3), np.ones(2))


class TestSummaries:
    def test_single_summary_row(self):
        trace = run_single_session(StaticAllocator(8.0), np.full(100, 4.0))
        summary = summarize_single(trace, "static", window=8)
        assert summary.label == "static"
        assert summary.max_delay == 0
        assert summary.global_utilization == pytest.approx(
            trace.total_arrived / trace.allocation.sum()
        )
        row = summary.as_row()
        assert len(row) == 8
        assert row[0] == "static"

    def test_multi_summary_row(self):
        policy = EqualSplitMultiSession(2, offline_bandwidth=4.0)
        trace = run_multi_session(policy, np.ones((50, 2)))
        summary = summarize_multi(trace, "equal", window=8)
        assert summary.max_allocation == 8.0
        assert summary.change_count == 2
