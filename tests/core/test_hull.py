"""Property tests: hull max-slope queries match the naive scan exactly."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hull import MaxSlopeHull
from repro.errors import ConfigError
from tests.references import naive_max_slope


def build_points(increments, ys):
    """Strictly increasing xs from positive increments."""
    xs = []
    x = 0.0
    for inc in increments:
        x += inc
        xs.append(x)
    return xs, list(ys[: len(xs)])


class TestMaxSlopeHullBasics:
    def test_empty_query_raises(self):
        with pytest.raises(ConfigError):
            MaxSlopeHull().max_slope_from(1, 0)

    def test_single_point(self):
        h = MaxSlopeHull()
        h.add(0, 0)
        assert h.max_slope_from(2, 4) == pytest.approx(2.0)

    def test_monotone_x_enforced(self):
        h = MaxSlopeHull()
        h.add(0, 0)
        with pytest.raises(ConfigError):
            h.add(0, 1)
        with pytest.raises(ConfigError):
            h.add(-1, 1)

    def test_query_left_of_points_raises(self):
        h = MaxSlopeHull()
        h.add(0, 0)
        h.add(5, 1)
        with pytest.raises(ConfigError):
            h.max_slope_from(5, 0)

    def test_clear(self):
        h = MaxSlopeHull()
        h.add(0, 0)
        h.clear()
        assert len(h) == 0

    def test_collinear_points(self):
        h = MaxSlopeHull()
        for x in range(5):
            h.add(x, 2 * x)
        assert h.max_slope_from(10, 20) == pytest.approx(2.0)

    def test_picks_lowest(self):
        h = MaxSlopeHull()
        h.add(0, 0)
        h.add(1, -5)  # dips down: best slope source
        h.add(2, 0)
        assert h.max_slope_from(3, 0) == pytest.approx(2.5)


@settings(max_examples=300, deadline=None)
@given(
    increments=st.lists(
        st.floats(min_value=0.01, max_value=10), min_size=1, max_size=120
    ),
    ys=st.lists(
        st.floats(min_value=-1e5, max_value=1e5, allow_nan=False),
        min_size=120,
        max_size=120,
    ),
    query_gap=st.floats(min_value=0.01, max_value=50),
    query_y=st.floats(min_value=-1e5, max_value=1e5, allow_nan=False),
)
def test_hull_matches_naive(increments, ys, query_gap, query_y):
    xs, ys = build_points(increments, ys)
    hull = MaxSlopeHull()
    for x, y in zip(xs, ys):
        hull.add(x, y)
    qx = xs[-1] + query_gap
    got = hull.max_slope_from(qx, query_y)
    want = naive_max_slope(xs, ys, qx, query_y)
    assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


@settings(max_examples=100, deadline=None)
@given(
    increments=st.lists(
        st.floats(min_value=0.5, max_value=3), min_size=2, max_size=80
    ),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_hull_matches_naive_under_interleaved_queries(increments, seed):
    """Queries interleaved with insertions (the LowTracker usage pattern)."""
    rng = np.random.default_rng(seed)
    hull = MaxSlopeHull()
    xs, ys = [], []
    x = 0.0
    y = 0.0
    for inc in increments:
        x += inc
        y += float(rng.normal())
        hull.add(x, y)
        xs.append(x)
        ys.append(y)
        qx = x + 1.0 + float(rng.random())
        qy = y + float(rng.normal())
        got = hull.max_slope_from(qx, qy)
        want = naive_max_slope(xs, ys, qx, qy)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-9)
