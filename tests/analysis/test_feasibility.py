"""Tests for the feasibility checker."""

import numpy as np
import pytest

from repro.analysis.feasibility import (
    check_multi_against_profiles,
    constant_bandwidth_needed,
    fifo_serves_within,
    is_delay_feasible,
    profile_serves,
    profiles_serve,
    simulate_fifo_delay,
    window_utilizations,
)
from repro.errors import ConfigError
from repro.params import OfflineConstraints
from tests.references import check_stream_against_profile

OFFLINE = OfflineConstraints(bandwidth=8, delay=2, utilization=0.5, window=4)


class TestSimulateFifoDelay:
    def test_instant_service(self):
        max_delay, leftover = simulate_fifo_delay(
            np.asarray([3.0, 3.0]), np.asarray([10.0, 10.0])
        )
        assert max_delay == 0
        assert leftover == 0

    def test_queueing_delay(self):
        max_delay, leftover = simulate_fifo_delay(
            np.asarray([10.0, 0.0, 0.0]), np.asarray([4.0, 4.0, 4.0])
        )
        assert max_delay == 2
        assert leftover == 0

    def test_leftover_counts_age(self):
        max_delay, leftover = simulate_fifo_delay(
            np.asarray([10.0, 0.0]), np.asarray([1.0, 1.0])
        )
        assert leftover == pytest.approx(8.0)
        assert max_delay >= 2

    def test_length_mismatch(self):
        with pytest.raises(ConfigError):
            simulate_fifo_delay(np.ones(2), np.ones(3))


class TestWindowUtilizations:
    def test_basic(self):
        ratios = window_utilizations(
            np.asarray([2.0, 2.0, 2.0, 2.0]), np.asarray([4.0, 4.0, 4.0, 4.0]), 2
        )
        np.testing.assert_allclose(ratios, 0.5)

    def test_nan_where_no_allocation(self):
        ratios = window_utilizations(
            np.asarray([1.0, 1.0]), np.asarray([0.0, 0.0]), 2
        )
        assert np.isnan(ratios).all()

    def test_short_series(self):
        assert window_utilizations(np.ones(2), np.ones(2), 5).size == 0


class TestCheckStream:
    def test_accepts_served_exactly(self):
        profile = np.full(100, 8.0)
        arrivals = np.full(100, 6.0)
        report = check_stream_against_profile(arrivals, profile, OFFLINE)
        assert report.feasible

    def test_rejects_bandwidth_violation(self):
        profile = np.full(20, 9.0)
        report = check_stream_against_profile(np.ones(20), profile, OFFLINE)
        assert not report.feasible
        assert "B_O" in report.detail

    def test_rejects_delay_violation(self):
        profile = np.full(20, 8.0)
        arrivals = np.zeros(20)
        arrivals[0] = 100.0  # needs 100/8 > D_O + 1 slots
        report = check_stream_against_profile(arrivals, profile, OFFLINE)
        assert not report.feasible
        assert "delay" in report.detail

    def test_rejects_utilization_violation(self):
        profile = np.full(40, 8.0)
        arrivals = np.full(40, 1.0)  # window util 1/8 < 0.5
        report = check_stream_against_profile(arrivals, profile, OFFLINE)
        assert not report.feasible
        assert "utilization" in report.detail

    def test_delay_only_constraints_skip_utilization(self):
        offline = OfflineConstraints(bandwidth=8, delay=2)
        profile = np.full(40, 8.0)
        arrivals = np.full(40, 1.0)
        report = check_stream_against_profile(arrivals, profile, offline)
        assert report.feasible


class TestCheckMulti:
    def test_accepts(self):
        profiles = np.full((50, 2), 3.0)
        arrivals = np.full((50, 2), 2.0)
        report = check_multi_against_profiles(arrivals, profiles, 8.0, 2)
        assert report.feasible

    def test_rejects_total_bandwidth(self):
        profiles = np.full((50, 2), 5.0)
        report = check_multi_against_profiles(
            np.ones((50, 2)), profiles, 8.0, 2
        )
        assert not report.feasible

    def test_rejects_per_session_delay(self):
        profiles = np.full((50, 2), 2.0)
        arrivals = np.zeros((50, 2))
        arrivals[0, 1] = 50.0
        report = check_multi_against_profiles(arrivals, profiles, 8.0, 2)
        assert not report.feasible
        assert "session 1" in report.detail

    def test_shape_mismatch(self):
        with pytest.raises(ConfigError):
            check_multi_against_profiles(np.ones((5, 2)), np.ones((5, 3)), 8, 2)


class TestBadInput:
    """Every check rejects bad input with ConfigError before any arithmetic."""

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_rejects_non_finite_and_negative_arrivals(self, bad):
        arrivals = np.array([1.0, bad, 1.0])
        profile = np.full(3, 8.0)
        for check in (check_stream_against_profile, profile_serves):
            with pytest.raises(ConfigError, match="finite|non-negative"):
                check(arrivals, profile, OFFLINE)
        with pytest.raises(ConfigError, match="finite|non-negative"):
            fifo_serves_within(arrivals, profile, 2)
        for check in (check_multi_against_profiles, profiles_serve):
            with pytest.raises(ConfigError, match="finite|non-negative"):
                check(np.column_stack([arrivals, arrivals]), np.full((3, 2), 2.0), 8.0, 2)

    @pytest.mark.parametrize("bad", [float("nan"), -1.0])
    def test_rejects_negative_and_nan_profiles(self, bad):
        profile = np.array([8.0, bad, 8.0])
        for check in (check_stream_against_profile, profile_serves):
            with pytest.raises(ConfigError, match="capacities"):
                check(np.ones(3), profile, OFFLINE)
        with pytest.raises(ConfigError, match="capacities"):
            fifo_serves_within(np.ones(3), profile, 2)
        for check in (check_multi_against_profiles, profiles_serve):
            with pytest.raises(ConfigError, match="capacities"):
                check(np.ones((3, 2)), np.column_stack([profile, profile]), 8.0, 2)

    def test_rejects_wrong_dimensions(self):
        for check in (check_multi_against_profiles, profiles_serve):
            with pytest.raises(ConfigError, match="2-dimensional"):
                check(np.ones(10), np.ones(10), 8.0, 2)
        for check in (check_stream_against_profile, profile_serves):
            with pytest.raises(ConfigError, match="1-dimensional"):
                check(np.ones((10, 2)), np.ones((10, 2)), OFFLINE)

    def test_length_mismatch_on_delay_only_constraints(self):
        offline = OfflineConstraints(bandwidth=8, delay=2)
        for check in (check_stream_against_profile, profile_serves):
            with pytest.raises(ConfigError, match="shapes differ"):
                check(np.ones(10), np.full(12, 8.0), offline)
        with pytest.raises(ConfigError, match="shapes differ"):
            profiles_serve(np.ones((5, 2)), np.ones((5, 3)), 8.0, 2)


class TestConstantBandwidth:
    def test_needed_for_burst(self):
        arrivals = np.zeros(10)
        arrivals[0] = 30.0
        assert constant_bandwidth_needed(arrivals, 2) == pytest.approx(10.0)

    def test_is_delay_feasible(self):
        arrivals = np.zeros(10)
        arrivals[0] = 30.0
        assert is_delay_feasible(arrivals, 10.0, 2)
        assert not is_delay_feasible(arrivals, 9.0, 2)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_rejects_non_finite_and_negative_arrivals(self, bad):
        # [1, nan, 900] used to count as served by bandwidth 1.
        with pytest.raises(ConfigError, match="finite|non-negative"):
            is_delay_feasible([1.0, bad, 900.0], 1.0, 8)
        with pytest.raises(ConfigError, match="finite|non-negative"):
            constant_bandwidth_needed([1.0, bad, 900.0], 8)
