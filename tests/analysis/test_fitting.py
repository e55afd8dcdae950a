"""Tests for the trend-fitting helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.fitting import fit_linear, growth_exponent
from repro.errors import ConfigError


class TestFitLinear:
    def test_exact_line(self):
        fit = fit_linear([0, 1, 2, 3], [1, 3, 5, 7])
        assert fit.slope == pytest.approx(2.0)
        assert fit.intercept == pytest.approx(1.0)
        assert fit.r_squared == pytest.approx(1.0)
        assert fit.predict(10) == pytest.approx(21.0)

    def test_noisy_line_r_squared(self):
        rng = np.random.default_rng(0)
        xs = list(range(50))
        ys = [2 * x + 1 + rng.normal(0, 0.5) for x in xs]
        fit = fit_linear(xs, ys)
        assert fit.slope == pytest.approx(2.0, abs=0.05)
        assert fit.r_squared > 0.99

    def test_validation(self):
        with pytest.raises(ConfigError):
            fit_linear([1], [1])
        with pytest.raises(ConfigError):
            fit_linear([1, 2], [1])
        with pytest.raises(ConfigError):
            fit_linear([3, 3], [1, 2])

    def test_constant_y(self):
        fit = fit_linear([1, 2, 3], [5, 5, 5])
        assert fit.slope == pytest.approx(0.0)
        assert fit.r_squared == pytest.approx(1.0)

    @settings(max_examples=60, deadline=None)
    @given(
        slope=st.floats(min_value=-10, max_value=10),
        intercept=st.floats(min_value=-10, max_value=10),
    )
    def test_recovers_exact_parameters(self, slope, intercept):
        xs = [0.0, 1.0, 2.5, 4.0]
        ys = [slope * x + intercept for x in xs]
        fit = fit_linear(xs, ys)
        assert fit.slope == pytest.approx(slope, abs=1e-6)
        assert fit.intercept == pytest.approx(intercept, abs=1e-6)


class TestShapeHelpers:
    def test_growth_exponent_linear(self):
        xs = [2.0, 4.0, 8.0, 16.0]
        assert growth_exponent(xs, [3 * x for x in xs]) == pytest.approx(1.0)

    def test_growth_exponent_bounded(self):
        xs = [2.0, 4.0, 8.0, 16.0]
        assert abs(growth_exponent(xs, [7.0, 7.0, 7.0, 7.0])) < 0.01

    def test_growth_exponent_handles_zero(self):
        xs = [2.0, 4.0]
        assert growth_exponent(xs, [0.0, 1.0]) > 0
