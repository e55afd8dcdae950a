"""The curve-form FIFO verdict against the exact replay.

``fifo_serves_within`` reads the delay verdict from cumulative curves and
re-runs ``simulate_fifo_delay`` only when its margin lies within the error
bound.  The oracle is the replay on the stream padded with ``D_O`` drain
slots at the final capacity level: every verdict must equal
``not (leftover > _EPS or max_delay > D_O)``, including on exact ties,
dust, sub-EPSILON capacities and scaled-down (infeasible) profiles.
``profile_serves`` and ``profiles_serve`` must equal the reports' verdicts.
Hypothesis budgets follow ``REPRO_FUZZ_EXAMPLES``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.analysis.feasibility as feasibility
from repro.analysis.feasibility import (
    _EPS,
    check_multi_against_profiles,
    fifo_serves_within,
    profile_serves,
    profiles_serve,
    simulate_fifo_delay,
)
from repro.network.queue import EPSILON
from repro.params import OfflineConstraints
from repro.traffic.feasible import generate_feasible_stream
from tests.strategies import (
    FUZZ_EXAMPLES,
    feasible_multi_workloads,
    feasible_single_workloads,
)
from tests.references import check_stream_against_profile

_SETTINGS = settings(max_examples=FUZZ_EXAMPLES, deadline=None)

SCALES = (1.0, 0.95, 0.9, 0.8)


def oracle(arrivals, capacities, delay):
    """The exact replay's verdict on the stream plus ``delay`` drain slots."""
    arrivals = np.asarray(arrivals, dtype=float)
    capacities = np.asarray(capacities, dtype=float)
    level = capacities[-1] if len(capacities) else 0.0
    max_delay, leftover = simulate_fifo_delay(
        np.concatenate([arrivals, np.zeros(delay)]),
        np.concatenate([capacities, np.full(delay, level)]),
    )
    return not (leftover > _EPS or max_delay > delay)


@pytest.fixture
def replays(monkeypatch):
    """Count the exact replays the verdicts fall back to."""
    calls = []

    def counted(arrivals, capacities):
        calls.append(len(arrivals))
        return simulate_fifo_delay(arrivals, capacities)

    monkeypatch.setattr(feasibility, "simulate_fifo_delay", counted)
    return calls


#: Per-slot values mixing dust (<= EPSILON), exact zeros and real bits.
_values = st.one_of(
    st.just(0.0),
    st.just(EPSILON),
    st.floats(min_value=0.0, max_value=EPSILON),
    st.floats(min_value=0.0, max_value=40.0),
)


@st.composite
def _streams(draw, values=_values, max_slots: int = 80):
    n = draw(st.integers(0, max_slots))
    arrivals = draw(st.lists(values, min_size=n, max_size=n))
    capacities = draw(st.lists(values, min_size=n, max_size=n))
    return np.array(arrivals, dtype=float), np.array(capacities, dtype=float)


class TestVerdictMatchesReplay:
    @_SETTINGS
    @given(_streams(), st.integers(1, 6))
    def test_dust_and_sub_epsilon_streams(self, stream, delay):
        arrivals, capacities = stream
        assert fifo_serves_within(arrivals, capacities, delay) == oracle(
            arrivals, capacities, delay
        )

    @_SETTINGS
    @given(_streams(values=st.integers(0, 4).map(float)), st.integers(1, 4))
    def test_integer_streams(self, stream, delay):
        # Small integers make q[t] equal its window capacity exactly often.
        arrivals, capacities = stream
        assert fifo_serves_within(arrivals, capacities, delay) == oracle(
            arrivals, capacities, delay
        )

    @_SETTINGS
    @given(
        st.lists(st.integers(0, 5).map(float), min_size=1, max_size=40),
        st.integers(1, 5),
        st.integers(0, 39),
        st.sampled_from([-1.0, 0.0, 1.0]),
    )
    def test_backlog_at_its_window_capacity(self, capacities, delay, at, extra):
        # Arrivals at slot `at` that fill its window exactly (0), by one bit
        # more (-1 margin) or one bit less.
        capacities = np.array(capacities)
        n = len(capacities)
        at = at % n
        padded = np.concatenate([capacities, np.full(delay, capacities[-1])])
        arrivals = np.zeros(n)
        arrivals[at] = max(0.0, padded[at : at + delay + 1].sum() + extra)
        assert fifo_serves_within(arrivals, capacities, delay) == oracle(
            arrivals, capacities, delay
        )

    @pytest.mark.parametrize(
        "arrivals, capacities, delay",
        [
            pytest.param([], [], 1, id="empty"),
            pytest.param([], [], 4, id="empty-long-drain"),
            pytest.param([0.0], [0.0], 1, id="idle"),
            pytest.param([5.0], [0.0], 1, id="late"),
            pytest.param([5.0], [2.0], 1, id="one-short"),
            pytest.param([4.0], [2.0], 1, id="tie"),
            pytest.param([EPSILON], [0.0], 1, id="dust"),
            pytest.param([2.0, 0.0], [1.0, 1.0], 1, id="tie-two-slots"),
            pytest.param([2.0, 1.0], [1.0, 1.0], 1, id="over-two-slots"),
            pytest.param([1.0, 1e-10], [EPSILON / 2, 0.0], 1, id="sub-epsilon"),
            # The pop that ends slot 0 drops a 5e-10 residue: the replay
            # serves everything at delay 0 although the curve's margin is
            # -5e-10, so a zero error bound turns this verdict False.
            pytest.param([1.0 + 5e-10, 0.0], [1.0, 0.0], 1, id="pop-residue"),
        ],
    )
    def test_short_horizons(self, arrivals, capacities, delay):
        assert fifo_serves_within(arrivals, capacities, delay) == oracle(
            arrivals, capacities, delay
        )


class TestExactPath:
    def test_tie_replays(self, replays):
        # q[0] = 1 equals the capacity of slot 1: a margin of exactly 0.
        assert fifo_serves_within([2.0, 0.0], [1.0, 1.0], 1) is True
        assert replays == [3]

    def test_generated_stream_does_not_replay(self, replays):
        offline = OfflineConstraints(bandwidth=64.0, delay=8, utilization=0.25, window=16)
        stream = generate_feasible_stream(offline, 50_000, segments=40, seed=0)
        assert replays == []
        assert profile_serves(stream.arrivals, stream.profile, offline) is True
        assert replays == []


class TestGeneratedWorkloads:
    @_SETTINGS
    @given(feasible_single_workloads())
    def test_scaled_profiles(self, workload):
        stream, offline = workload
        for scale in SCALES:
            profile = stream.profile * scale
            assert fifo_serves_within(stream.arrivals, profile, offline.delay) == oracle(
                stream.arrivals, profile, offline.delay
            )
            report = check_stream_against_profile(stream.arrivals, profile, offline)
            assert profile_serves(stream.arrivals, profile, offline) is report.feasible

    @_SETTINGS
    @given(feasible_multi_workloads())
    def test_scaled_multi_profiles(self, drawn):
        workload, bandwidth, delay, _ = drawn
        for scale in SCALES:
            profiles = workload.profiles * scale
            report = check_multi_against_profiles(
                workload.arrivals, profiles, bandwidth, delay
            )
            assert profiles_serve(workload.arrivals, profiles, bandwidth, delay) is report.feasible

    @_SETTINGS
    @given(
        st.integers(0, 30).flatmap(
            lambda n: st.tuples(
                st.lists(st.lists(_values, min_size=3, max_size=3), min_size=n, max_size=n),
                st.lists(st.lists(_values, min_size=3, max_size=3), min_size=n, max_size=n),
            )
        ),
        st.integers(1, 4),
        st.sampled_from([20.0, 60.0, 200.0]),
    )
    def test_random_multi(self, stream, delay, bandwidth):
        arrivals = np.array(stream[0], dtype=float).reshape(-1, 3)
        profiles = np.array(stream[1], dtype=float).reshape(-1, 3)
        report = check_multi_against_profiles(arrivals, profiles, bandwidth, delay)
        assert profiles_serve(arrivals, profiles, bandwidth, delay) is report.feasible
