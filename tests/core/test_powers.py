"""Unit and property tests for the quantizers."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.powers import (
    GeometricQuantizer,
    PowerOfTwoQuantizer,
    next_power_of_two,
)
from repro.errors import ConfigError


class TestNextPowerOfTwo:
    def test_zero_and_negative(self):
        assert next_power_of_two(0) == 0.0
        assert next_power_of_two(-5) == 0.0

    def test_small_positive_snaps_to_one(self):
        assert next_power_of_two(0.3) == 1.0
        assert next_power_of_two(1.0) == 1.0

    def test_exact_powers_fixed(self):
        for j in range(0, 40):
            assert next_power_of_two(2.0**j) == 2.0**j

    def test_rounds_up(self):
        assert next_power_of_two(3) == 4.0
        assert next_power_of_two(4.0001) == 8.0
        assert next_power_of_two(1000) == 1024.0

    @given(st.floats(min_value=1e-6, max_value=1e12))
    def test_properties(self, x):
        p = next_power_of_two(x)
        assert p >= x
        assert math.frexp(p)[0] == 0.5  # a power of two
        # Tight: the next lower power is below x (unless p == 1).
        assert p == 1.0 or p / 2 < x


class TestPowerOfTwoQuantizer:
    def test_levels(self):
        q = PowerOfTwoQuantizer()
        assert q.levels(1) == 1  # {1}
        assert q.levels(64) == 7  # {1..64}
        assert q.levels(0.5) == 0

    def test_call(self):
        q = PowerOfTwoQuantizer()
        assert q(5) == 8.0
        assert q(0) == 0.0


class TestGeometricQuantizer:
    def test_base_validation(self):
        with pytest.raises(ConfigError):
            GeometricQuantizer(1.0)

    def test_base_two_matches_power_of_two(self):
        g = GeometricQuantizer(2.0)
        p = PowerOfTwoQuantizer()
        for x in [0.0, 0.5, 1, 3, 17, 64, 100.5]:
            assert g(x) == p(x)

    @given(
        st.floats(min_value=1.01, max_value=64.0),
        st.floats(min_value=1e-3, max_value=1e9),
    )
    def test_dominates_and_tight(self, base, x):
        g = GeometricQuantizer(base)
        level = g(x)
        assert level >= min(x, level)  # level >= x unless snapped to 1
        assert level >= x or level == 1.0
        if level > 1.0:
            assert level / base < x

    def test_levels_count(self):
        g = GeometricQuantizer(4.0)
        assert g.levels(64) == 4  # 1, 4, 16, 64
