"""Tests for the certificate-backed feasible stream generators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.feasibility import check_multi_against_profiles
from repro.errors import ConfigError
from repro.params import OfflineConstraints
from repro.traffic.feasible import (
    generate_feasible_stream,
    make_profile,
    profile_switch_count,
)
from repro.traffic.multi import (
    generate_multi_feasible,
    independent_processes_workload,
)
from tests.fakes import Constant
from tests.references import check_stream_against_profile

OFFLINE = OfflineConstraints(bandwidth=64, delay=4, utilization=0.25, window=8)


class TestMakeProfile:
    def test_shape_and_range(self, rng):
        profile = make_profile(500, 5, 64.0, rng, min_segment=20)
        assert profile.shape == (500,)
        assert profile.max() <= 64.0
        assert profile.min() > 0

    def test_switch_count_matches_segments(self, rng):
        profile = make_profile(500, 5, 64.0, rng, min_segment=20)
        assert profile_switch_count(profile) == 4

    def test_too_short_horizon_rejected(self, rng):
        with pytest.raises(ConfigError):
            make_profile(10, 5, 64.0, rng, min_segment=20)

    def test_switch_count_edge_cases(self):
        assert profile_switch_count(np.asarray([])) == 0
        assert profile_switch_count(np.asarray([5.0])) == 0
        assert profile_switch_count(np.asarray([5.0, 5.0, 3.0])) == 1


class TestGenerateFeasibleStream:
    @pytest.mark.parametrize("burstiness", ["smooth", "blocks"])
    def test_certified_feasible(self, burstiness):
        stream = generate_feasible_stream(
            OFFLINE, horizon=2000, segments=6, seed=0, burstiness=burstiness
        )
        report = check_stream_against_profile(
            stream.arrivals, stream.profile, OFFLINE
        )
        assert report.feasible, report.detail
        assert stream.profile_changes <= 5

    def test_requires_utilization_constraint(self):
        with pytest.raises(ConfigError):
            generate_feasible_stream(
                OfflineConstraints(bandwidth=8, delay=2), horizon=100
            )

    def test_reproducible(self):
        a = generate_feasible_stream(OFFLINE, horizon=1000, seed=5)
        b = generate_feasible_stream(OFFLINE, horizon=1000, seed=5)
        np.testing.assert_array_equal(a.arrivals, b.arrivals)
        np.testing.assert_array_equal(a.profile, b.profile)

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        utilization=st.sampled_from([0.1, 0.25, 0.5]),
        delay=st.sampled_from([2, 4, 8]),
        burstiness=st.sampled_from(["smooth", "blocks"]),
    )
    def test_always_certified_property(self, seed, utilization, delay, burstiness):
        offline = OfflineConstraints(
            bandwidth=128, delay=delay, utilization=utilization, window=2 * delay
        )
        stream = generate_feasible_stream(
            offline, horizon=1200, segments=4, seed=seed, burstiness=burstiness
        )
        report = check_stream_against_profile(
            stream.arrivals, stream.profile, offline
        )
        assert report.feasible, report.detail


class TestGenerateMultiFeasible:
    def test_certified_feasible(self):
        workload = generate_multi_feasible(
            4, offline_bandwidth=32.0, offline_delay=4, horizon=1200,
            segments=5, seed=1,
        )
        report = check_multi_against_profiles(
            workload.arrivals, workload.profiles, 32.0, 4
        )
        assert report.feasible, report.detail
        assert workload.k == 4
        assert workload.profile_changes == sum(workload.per_session_changes())

    def test_shifting_weights_produce_changes(self):
        workload = generate_multi_feasible(
            4, offline_bandwidth=32.0, offline_delay=4, horizon=1600,
            segments=6, seed=2, concentration=0.5,
        )
        assert workload.profile_changes >= 4

    def test_validation(self):
        with pytest.raises(ConfigError):
            generate_multi_feasible(0, 8.0, 2, 100)
        with pytest.raises(ConfigError):
            generate_multi_feasible(2, 8.0, 2, horizon=10, segments=5)

    def test_rejects_unknown_burstiness(self):
        with pytest.raises(ConfigError, match="'smooth' or 'blocks'"):
            generate_multi_feasible(2, 8.0, 2, 100, seed=1, burstiness="bogus")

    def test_rejects_zero_offline_delay(self):
        with pytest.raises(ConfigError, match="offline_delay"):
            generate_multi_feasible(2, 8.0, 0, 100, seed=1)

    def test_budget_respected(self):
        workload = generate_multi_feasible(
            3, offline_bandwidth=16.0, offline_delay=4, horizon=800,
            segments=3, seed=3,
        )
        totals = workload.profiles.sum(axis=1)
        # The offline assignment hands out 90% of B_O.
        assert totals.max() <= 16.0 * 0.9 + 1e-9

    @pytest.mark.parametrize("segments", [0, -1])
    def test_rejects_fewer_than_one_segment(self, segments):
        with pytest.raises(ConfigError, match="segments must be >= 1"):
            generate_multi_feasible(2, 16.0, 4, 200, segments=segments, seed=1)
        # The single-session generator rejects the same input.
        with pytest.raises(ConfigError, match="segments must be >= 1"):
            generate_feasible_stream(OFFLINE, 200, segments=segments, seed=1)


class TestIndependentProcesses:
    def test_shapes(self):
        arrivals = independent_processes_workload(
            [Constant(1.0), Constant(2.0)], horizon=50, seed=0
        )
        assert arrivals.shape == (50, 2)
        assert (arrivals[:, 1] == 2.0).all()
