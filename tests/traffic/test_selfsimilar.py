"""Tests for the self-similar aggregate source."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.traffic.selfsimilar import SelfSimilarAggregate


class TestSelfSimilarAggregate:
    def test_validation(self):
        with pytest.raises(ConfigError):
            SelfSimilarAggregate(sources=0)
        with pytest.raises(ConfigError):
            SelfSimilarAggregate(shape=2.5)
        with pytest.raises(ConfigError):
            SelfSimilarAggregate(mean_on=1)

    def test_shape_sign_reproducibility(self):
        process = SelfSimilarAggregate(sources=8)
        a = process.materialize(300, seed=0)
        b = process.materialize(300, seed=0)
        np.testing.assert_array_equal(a, b)
        assert (a >= 0).all()
        assert a.max() <= 8 * 1.0 + 1e-9  # at most all sources ON

    def test_mean_rate_roughly_stationary(self):
        process = SelfSimilarAggregate(
            sources=16, rate_per_source=2.0, mean_on=10, mean_off=30, shape=1.8
        )
        arrivals = process.materialize(20_000, seed=1)
        expected = 16 * 2.0 * 10 / (10 + 30)
        assert arrivals.mean() == pytest.approx(expected, rel=0.4)

    def test_long_range_dependence_signature(self):
        """Aggregate variance decays slower than 1/m (slope > -1):
        the self-similarity signature that short-range traffic lacks."""
        heavy = SelfSimilarAggregate(
            sources=64, mean_on=8, mean_off=8, shape=1.2
        ).materialize(60_000, seed=2)
        # log10 of the variance of the block means at scales 10 and 100:
        # their difference is the slope in log10-space.
        variances = [heavy.reshape(-1, m).mean(axis=1).var() for m in (10, 100)]
        slope = np.log10(variances[1] / variances[0])
        assert slope > -1.0  # iid traffic would give ~-1
