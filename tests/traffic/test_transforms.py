"""Tests for the arrival-process combinators."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.traffic.poisson import PoissonArrivals
from repro.traffic.transforms import Jittered, Superpose
from tests.fakes import Constant


class TestTransforms:
    def test_superpose(self):
        process = Superpose([Constant(1.0), Constant(2.0)])
        assert (process.materialize(4) == 3.0).all()

    def test_superpose_empty_rejected(self):
        with pytest.raises(ConfigError):
            Superpose([])

    def test_add_operator(self):
        process = Constant(1.0) + Constant(4.0)
        assert (process.materialize(3) == 5.0).all()

    def test_jittered_zero_sigma_passthrough(self):
        arrivals = Jittered(Constant(2.0), 0.0).materialize(5, seed=0)
        assert (arrivals == 2.0).all()

    def test_jittered_preserves_mean_roughly(self):
        arrivals = Jittered(Constant(2.0), 0.3).materialize(20_000, seed=1)
        assert arrivals.mean() == pytest.approx(
            2.0 * np.exp(0.3**2 / 2), rel=0.05
        )

    def test_jittered_randomness_composes_with_inner(self):
        process = Jittered(PoissonArrivals(5.0), 0.2)
        a = process.materialize(100, seed=7)
        b = process.materialize(100, seed=7)
        np.testing.assert_array_equal(a, b)
