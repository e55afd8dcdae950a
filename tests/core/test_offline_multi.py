"""Tests for the multi-session offline certificates."""

import numpy as np
import pytest

from repro.core.offline_multi import multi_stage_certificate, multi_stage_lower_bound
from repro.errors import ConfigError
from repro.traffic.multi import generate_multi_feasible


class TestMultiStageCertificate:
    def test_shape_validation(self):
        with pytest.raises(ConfigError):
            multi_stage_lower_bound(np.ones(5), 8.0, 2)
        with pytest.raises(ConfigError):
            multi_stage_lower_bound(np.ones((5, 2)), 0.0, 2)

    def test_light_symmetric_load_needs_no_changes(self):
        arrivals = np.full((400, 4), 1.0)
        assert multi_stage_lower_bound(arrivals, 16.0, 4) == 0

    def test_shifting_load_forces_changes(self):
        """A B_O-rate load hopping between sessions needs re-splits."""
        k, b, d = 4, 16.0, 4
        horizon = 400
        arrivals = np.zeros((horizon, k))
        for t in range(horizon):
            arrivals[t, (t // 50) % k] = b * 0.9
        lower = multi_stage_lower_bound(arrivals, b, d)
        assert lower >= 3

    def test_intervals_disjoint(self):
        k, b, d = 3, 8.0, 2
        arrivals = np.zeros((300, k))
        for t in range(300):
            arrivals[t, (t // 30) % k] = b
        certificate = multi_stage_certificate(arrivals, b, d)
        previous_end = -1
        for start, end in certificate.intervals:
            assert start > previous_end
            previous_end = end

    def test_lower_bound_below_generator_certificate(self):
        for seed in range(4):
            workload = generate_multi_feasible(
                4,
                offline_bandwidth=32.0,
                offline_delay=4,
                horizon=1500,
                segments=5,
                seed=seed,
                concentration=0.5,
            )
            lower = multi_stage_lower_bound(workload.arrivals, 32.0, 4)
            assert lower <= workload.profile_changes + 1


class TestArrivalValidation:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_certificate_rejects(self, bad):
        arrivals = np.ones((6, 2))
        arrivals[2, 1] = bad
        with pytest.raises(ConfigError, match="finite|non-negative"):
            multi_stage_certificate(arrivals, 8.0, 2)
