"""Tests for the diurnal modulation combinator."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.traffic.diurnal import Diurnal, staggered_diurnal_sessions
from repro.traffic.poisson import PoissonArrivals
from tests.fakes import Constant


class TestDiurnal:
    def test_validation(self):
        with pytest.raises(ConfigError):
            Diurnal(Constant(1.0), period=1)
        with pytest.raises(ConfigError):
            Diurnal(Constant(1.0), period=10, depth=1.5)

    def test_swing_range(self):
        arrivals = Diurnal(Constant(10.0), period=48, depth=0.6).materialize(
            480, seed=0
        )
        assert arrivals.max() == pytest.approx(10.0, rel=1e-6)
        assert arrivals.min() == pytest.approx(4.0, rel=1e-6)

    def test_zero_depth_passthrough(self):
        arrivals = Diurnal(Constant(5.0), period=24, depth=0.0).materialize(
            100, seed=0
        )
        np.testing.assert_allclose(arrivals, 5.0)

    def test_period_visible(self):
        arrivals = Diurnal(Constant(1.0), period=40, depth=1.0).materialize(
            120, seed=0
        )
        np.testing.assert_allclose(arrivals[:40], arrivals[40:80], atol=1e-12)

    def test_phase_shifts_peak(self):
        a = Diurnal(Constant(1.0), period=40, depth=1.0, phase=0.0)
        b = Diurnal(Constant(1.0), period=40, depth=1.0, phase=0.5)
        series_a = a.materialize(40, seed=0)
        series_b = b.materialize(40, seed=0)
        assert abs(int(series_a.argmax()) - int(series_b.argmax())) == 20

    def test_reproducible_with_random_inner(self):
        process = Diurnal(PoissonArrivals(6.0), period=48)
        np.testing.assert_array_equal(
            process.materialize(200, seed=3), process.materialize(200, seed=3)
        )


class TestStaggeredSessions:
    def test_validation(self):
        with pytest.raises(ConfigError):
            staggered_diurnal_sessions(lambda: Constant(1.0), 0, 40)

    def test_peaks_evenly_staggered(self):
        sessions = staggered_diurnal_sessions(
            lambda: Constant(1.0), k=4, period=40, depth=1.0
        )
        peaks = [int(s.materialize(40, seed=0).argmax()) for s in sessions]
        gaps = [(b - a) % 40 for a, b in zip(peaks, peaks[1:])]
        # Evenly staggered: every consecutive peak is period/k apart
        # (in either rotation direction).
        assert len(set(gaps)) == 1
        assert gaps[0] in (10, 30)

    def test_aggregate_flatter_than_single(self):
        sessions = staggered_diurnal_sessions(
            lambda: Constant(10.0), k=8, period=64, depth=0.8
        )
        columns = np.stack(
            [s.materialize(640, seed=0) for s in sessions], axis=1
        )
        aggregate = columns.sum(axis=1)
        single = columns[:, 0]
        agg_swing = aggregate.max() / max(aggregate.min(), 1e-9)
        single_swing = single.max() / max(single.min(), 1e-9)
        assert agg_swing < single_swing / 2
