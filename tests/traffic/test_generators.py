"""Tests for the synthetic arrival processes."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.traffic.mmpp import MarkovModulatedPoisson
from repro.traffic.onoff import OnOffBursts
from repro.traffic.pareto import ParetoBursts
from repro.traffic.poisson import CompoundPoisson, PoissonArrivals
from repro.traffic.spikes import Spikes, figure1_demand
from repro.traffic.vbr import MpegVbr

ALL_PROCESSES = [
    PoissonArrivals(4.0),
    CompoundPoisson(burst_rate=0.2, mean_burst=10.0),
    OnOffBursts(on_rate=8.0, mean_on=10, mean_off=20, jitter=0.3),
    MarkovModulatedPoisson.bursty(low=1.0, high=10.0),
    MpegVbr(mean_rate=6.0),
    ParetoBursts(burst_prob=0.1, mean_burst=20.0, shape=1.8, spread=3),
    Spikes(slots=[5, 50], height=40.0),
    figure1_demand(),
]


@pytest.mark.parametrize(
    "process", ALL_PROCESSES, ids=lambda p: type(p).__name__
)
class TestCommonContract:
    def test_shape_and_sign(self, process):
        arrivals = process.materialize(200, seed=0)
        assert arrivals.shape == (200,)
        assert (arrivals >= 0).all()

    def test_seed_reproducibility(self, process):
        a = process.materialize(200, seed=42)
        b = process.materialize(200, seed=42)
        np.testing.assert_array_equal(a, b)

    def test_zero_horizon(self, process):
        assert process.materialize(0, seed=0).shape == (0,)

    def test_repr(self, process):
        assert type(process).__name__ in repr(process)


class TestSpecificBehaviours:
    def test_poisson_mean(self):
        arrivals = PoissonArrivals(6.0).materialize(20_000, seed=1)
        assert arrivals.mean() == pytest.approx(6.0, rel=0.05)

    def test_compound_poisson_mean(self):
        process = CompoundPoisson(burst_rate=0.5, mean_burst=8.0)
        arrivals = process.materialize(20_000, seed=2)
        assert arrivals.mean() == pytest.approx(4.0, rel=0.15)

    def test_onoff_duty_cycle(self):
        process = OnOffBursts(on_rate=10.0, mean_on=10, mean_off=30)
        arrivals = process.materialize(50_000, seed=3)
        busy = (arrivals > 0).mean()
        assert busy == pytest.approx(0.25, abs=0.05)

    def test_mmpp_validation(self):
        with pytest.raises(ConfigError):
            MarkovModulatedPoisson([[0.5, 0.6], [0.5, 0.5]], [1, 2])
        with pytest.raises(ConfigError):
            MarkovModulatedPoisson([[1.0]], [-1.0])
        with pytest.raises(ConfigError):
            MarkovModulatedPoisson([[1.0]], [1.0], start_state=5)

    def test_mmpp_rate_between_extremes(self):
        process = MarkovModulatedPoisson.bursty(low=1.0, high=9.0)
        arrivals = process.materialize(50_000, seed=4)
        assert 1.5 < arrivals.mean() < 8.5

    def test_vbr_frame_spacing(self):
        process = MpegVbr(mean_rate=6.0, frame_interval=3, noise_sigma=0)
        arrivals = process.materialize(30, seed=5)
        assert (arrivals[np.arange(30) % 3 != 0] == 0).all()
        assert (arrivals[::3] > 0).all()

    def test_vbr_mean_rate(self):
        process = MpegVbr(
            mean_rate=6.0, noise_sigma=0.0, scene_change_prob=0.0
        )
        arrivals = process.materialize(12_000, seed=6)
        assert arrivals.mean() == pytest.approx(6.0, rel=0.05)

    def test_pareto_heavy_tail(self):
        process = ParetoBursts(burst_prob=0.2, mean_burst=10.0, shape=1.5)
        arrivals = process.materialize(50_000, seed=7)
        assert arrivals.max() > 20 * arrivals[arrivals > 0].mean()

    def test_pareto_spread_smears_bursts(self):
        tight = ParetoBursts(burst_prob=0.05, mean_burst=10.0, spread=1)
        wide = ParetoBursts(burst_prob=0.05, mean_burst=10.0, spread=5)
        assert (
            wide.materialize(5000, seed=8).max()
            < tight.materialize(5000, seed=8).max() + 1e-9
        )

    def test_pareto_cap(self):
        process = ParetoBursts(burst_prob=0.3, mean_burst=10.0, cap=15.0)
        assert process.materialize(5000, seed=9).max() <= 15.0

    def test_spikes_placement(self):
        arrivals = Spikes(slots=[2, 100], height=7.0).materialize(10)
        assert arrivals[2] == 7.0
        assert arrivals.sum() == 7.0  # slot 100 beyond horizon


class TestValidationErrors:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: PoissonArrivals(-1),
            lambda: CompoundPoisson(-0.1, 5),
            lambda: CompoundPoisson(0.1, 0),
            lambda: OnOffBursts(on_rate=-1, mean_on=5, mean_off=5),
            lambda: OnOffBursts(on_rate=1, mean_on=0.5, mean_off=5),
            lambda: MpegVbr(mean_rate=-1),
            lambda: MpegVbr(mean_rate=1, frame_interval=0),
            lambda: ParetoBursts(2.0, 5),
            lambda: ParetoBursts(0.1, 5, shape=0.9),
            lambda: Spikes([-1], 5),
        ],
    )
    def test_bad_config_raises(self, build):
        with pytest.raises(ConfigError):
            build()
