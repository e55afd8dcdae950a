"""Tests for the sliding-window sum against a brute-force reference."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.windows import SlidingWindowSum
from repro.errors import ConfigError

values_strategy = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=200
)
window_strategy = st.integers(min_value=1, max_value=50)


class TestSlidingWindowSum:
    def test_window_one(self):
        s = SlidingWindowSum(1)
        assert s.push(5) == 5
        assert s.push(2) == 2

    def test_rejects_bad_window(self):
        with pytest.raises(ConfigError):
            SlidingWindowSum(0)

    def test_full_flag(self):
        s = SlidingWindowSum(3)
        s.push(1)
        assert not s.full
        s.push(1)
        s.push(1)
        assert s.full

    def test_reset(self):
        s = SlidingWindowSum(2)
        s.push(3)
        s.reset()
        assert s.sum == 0.0
        assert len(s) == 0

    @given(values_strategy, window_strategy)
    def test_matches_bruteforce(self, values, window):
        s = SlidingWindowSum(window)
        for i, v in enumerate(values):
            got = s.push(v)
            expected = sum(values[max(0, i - window + 1) : i + 1])
            assert got == pytest.approx(expected, rel=1e-9, abs=1e-6)
