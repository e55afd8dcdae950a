"""Tests for the single-session offline comparators and certificates."""

import numpy as np
import pytest

from repro.core.offline import stage_certificate, stage_lower_bound
from repro.errors import ConfigError
from repro.params import OfflineConstraints
from repro.traffic.feasible import generate_feasible_stream

OFFLINE = OfflineConstraints(bandwidth=64, delay=4, utilization=0.25, window=8)


class TestStageCertificate:
    def test_constant_stream_has_no_certificates(self):
        arrivals = np.full(500, 8.0)
        assert stage_lower_bound(arrivals, OFFLINE) == 0

    def test_trickle_burst_cycles_force_changes(self):
        cycle = [1.0] * 40 + [OFFLINE.bandwidth * OFFLINE.delay]
        arrivals = np.asarray(cycle * 5, dtype=float)
        lower = stage_lower_bound(arrivals, OFFLINE)
        assert lower >= 4

    def test_intervals_disjoint_and_ordered(self):
        cycle = [1.0] * 40 + [OFFLINE.bandwidth * OFFLINE.delay]
        certificate = stage_certificate(np.asarray(cycle * 5), OFFLINE)
        previous_end = -1
        for start, end in certificate.intervals:
            assert start > previous_end
            assert end >= start
            previous_end = end

    def test_needs_utilization(self):
        with pytest.raises(ConfigError):
            stage_lower_bound([1.0], OfflineConstraints(bandwidth=8, delay=2))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -5.0])
    def test_rejects_non_finite_and_negative_arrivals(self, bad):
        """A NaN compares False against every bound, so it used to poison
        the stage silently: ``[1, nan, 900, 5, 5]`` certified nothing
        while ``[1, 900, 5]`` certifies ``(0, 1)``."""
        offline = OfflineConstraints(bandwidth=64, delay=8, utilization=0.25, window=16)
        assert stage_certificate([1.0, 900.0, 5.0], offline).intervals == ((0, 1),)
        with pytest.raises(ConfigError, match="finite|non-negative"):
            stage_certificate([1.0, bad, 900.0, 5.0, 5.0], offline)

    def test_lower_bound_below_generator_certificate(self):
        """Soundness: the lower bound never exceeds a concrete feasible
        schedule's change count (+1 for the boundary convention)."""
        for seed in range(5):
            stream = generate_feasible_stream(
                OFFLINE, horizon=2500, segments=8, seed=seed, burstiness="blocks"
            )
            lower = stage_lower_bound(stream.arrivals, OFFLINE)
            assert lower <= stream.profile_changes + 1
