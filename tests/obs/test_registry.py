"""Tests for the metrics registry instruments."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.registry import (
    NULL_REGISTRY,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    bucket_percentile,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("a")
        assert counter.value == 0.0
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.counter("a") is not registry.counter("b")

    def test_counter_value_lookup(self):
        registry = MetricsRegistry()
        assert registry.counter_value("missing") == 0.0
        registry.counter("hit").inc(4)
        assert registry.counter_value("hit") == 4.0


class TestGauge:
    def test_tracks_range(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("g")
        gauge.set(5.0)
        gauge.set(-1.0)
        gauge.set(2.0)
        assert gauge.value == 2.0
        assert gauge.min == -1.0
        assert gauge.max == 5.0
        assert gauge.updates == 3


class TestHistogram:
    def test_power_of_two_buckets(self):
        histogram = Histogram("h")
        for value in (0.0, 0.5, 1.0, 3.0, 4.0, 100.0):
            histogram.observe(value)
        # 0 -> 0; 0.5 -> 0.5; 1 -> 1; 3 -> 4; 4 -> 4; 100 -> 128.
        assert histogram.buckets == {0.0: 1, 0.5: 1, 1.0: 1, 4.0: 2, 128.0: 1}
        assert histogram.count == 6
        assert histogram.max == 100.0
        assert histogram.mean == sum((0.0, 0.5, 1.0, 3.0, 4.0, 100.0)) / 6

    def test_empty_histogram_dict(self):
        data = Histogram("h").as_dict()
        assert data["count"] == 0
        assert data["min"] == 0.0 and data["max"] == 0.0
        assert data["buckets"] == {}

    def test_as_dict_buckets_sorted_and_stringified(self):
        histogram = Histogram("h")
        histogram.observe(100.0)
        histogram.observe(0.5)
        assert list(histogram.as_dict()["buckets"]) == ["0.5", "128"]


def _one_by_one(values) -> Histogram:
    histogram = Histogram("h")
    for value in values:
        histogram.observe(value)
    return histogram


def _assert_same(bulk: Histogram, reference: Histogram) -> None:
    assert bulk.count == reference.count
    assert bulk.total == reference.total
    assert bulk.min == reference.min and bulk.max == reference.max
    assert math.copysign(1.0, bulk.min) == math.copysign(1.0, reference.min)
    # Equal dicts with keys in the same (first-seen) order.
    assert list(bulk.buckets.items()) == list(reference.buckets.items())


def _around_powers(exponents, steps: int) -> list[float]:
    """Each ``2**k`` and the ``steps`` floats on either side of it."""
    values = []
    for k in exponents:
        above = below = math.ldexp(1.0, k)
        values.append(above)
        for _ in range(steps):
            above = math.nextafter(above, math.inf)
            below = math.nextafter(below, 0.0)
            values += [above, below]
    return values


class TestObserveMany:
    """``observe_many`` files every value as ``observe`` would."""

    def test_band_just_above_powers_of_two(self):
        # Every exponent a finite sum stays below 2**1024 for, subnormals
        # included.  A few ulps above a power, math.log2 rounds to the
        # integer and observe files the value under the power itself; the
        # plain frexp rule would put it one bucket higher.
        values = _around_powers(range(-1074, 1000), steps=40)
        disagree = sum(
            math.ceil(math.log2(v)) != math.frexp(v)[1] - (math.frexp(v)[0] == 0.5)
            for v in values
            if v > 0.0
        )
        assert disagree > 1000  # the band is really exercised
        bulk = Histogram("h")
        bulk.observe_many(np.array(values))
        _assert_same(bulk, _one_by_one(values))

    def test_each_probe_lands_in_its_own_bucket(self):
        for value in _around_powers(range(-60, 60, 3), steps=64):
            bulk = Histogram("h")
            bulk.observe_many(np.array([value]))
            assert bulk.buckets == _one_by_one([value]).buckets, value

    def test_zeros_negatives_and_empty(self):
        values = [0.0, -0.0, 3.0, -2.5, 0.0, 64.0, 64.0, 1e-300]
        bulk = Histogram("h")
        bulk.observe_many(np.array([]))
        assert bulk.count == 0 and bulk.buckets == {}
        bulk.observe_many(np.array(values))
        _assert_same(bulk, _one_by_one(values))

    def test_accumulates_across_calls(self):
        rng = np.random.default_rng(4)
        first, second = rng.exponential(8.0, 300), rng.exponential(0.3, 200)
        bulk = Histogram("h")
        bulk.observe(5.0)
        bulk.observe_many(first)
        bulk.observe_many(second)
        _assert_same(bulk, _one_by_one([5.0, *first.tolist(), *second.tolist()]))

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_subnormal=True),
            max_size=200,
        )
    )
    def test_random_values(self, values):
        bulk = Histogram("h")
        bulk.observe_many(np.array(values, dtype=float))
        _assert_same(bulk, _one_by_one(values))

    def test_null_histogram_accepts_it(self):
        NULL_REGISTRY.histogram("h").observe_many(np.ones(3))
        assert NULL_REGISTRY.histogram("h").count == 0


class TestSnapshot:
    def test_snapshot_sorted_and_json_ready(self):
        import json

        registry = MetricsRegistry()
        registry.counter("z").inc()
        registry.counter("a").inc(2)
        registry.gauge("g").set(1.0)
        registry.histogram("h").observe(8.0)
        snap = registry.snapshot()
        assert list(snap["counters"]) == ["a", "z"]
        assert snap["gauges"]["g"]["max"] == 1.0
        json.dumps(snap)  # must serialize cleanly

    def test_untouched_gauge_snapshot_is_finite(self):
        registry = MetricsRegistry()
        registry.gauge("g")
        snap = registry.snapshot()["gauges"]["g"]
        assert math.isfinite(snap["min"]) and math.isfinite(snap["max"])


class TestNullRegistry:
    def test_disabled_flag(self):
        assert NullRegistry().enabled is False
        assert MetricsRegistry().enabled is True

    def test_instruments_are_shared_no_ops(self):
        registry = NullRegistry()
        counter = registry.counter("anything")
        assert counter is registry.counter("something-else")
        counter.inc(1000)
        assert counter.value == 0.0
        registry.gauge("g").set(5.0)
        registry.histogram("h").observe(5.0)
        assert registry.snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }
        assert registry.counter_value("anything") == 0.0

    def test_module_singleton(self):
        assert NULL_REGISTRY.counter("x") is NullRegistry().counter("y")


class TestPercentileEdges:
    """Nearest-rank quantiles on degenerate histograms, pinned to numpy.

    ``bucket_percentile`` claims equivalence with numpy's
    ``inverted_cdf`` quantile whenever every observation sits on a bucket
    boundary; the empty and single-observation histograms are the edge
    cases of that claim (rank clamps to 1, clamp-to-max kicks in).
    """

    def test_empty_histogram_every_quantile_is_zero(self):
        histogram = Histogram("h")
        for q in (0.0, 0.25, 0.5, 0.99, 1.0):
            assert histogram.percentile(q) == 0.0
        assert bucket_percentile({}, 0, 0.5) == 0.0

    def test_single_observation_every_quantile_is_it(self):
        import numpy as np

        for value in (0.0, 0.75, 1.0, 3.0, 1024.0):
            histogram = Histogram("h")
            histogram.observe(value)
            for q in (0.0, 0.01, 0.5, 0.99, 1.0):
                expected = float(
                    np.quantile([value], q, method="inverted_cdf")
                )
                # The bucket bound over-estimates by up to 2x, but the
                # clamp to the observed max makes a single observation
                # exact at every rank — matching inverted_cdf.
                assert histogram.percentile(q) == expected == value

    def test_boundary_observations_match_inverted_cdf(self):
        import numpy as np

        data = [1.0, 2.0, 4.0, 8.0, 16.0, 16.0, 32.0]
        histogram = Histogram("h")
        for value in data:
            histogram.observe(value)
        for q in (0.1, 0.25, 0.5, 0.75, 0.9, 1.0):
            expected = float(np.quantile(data, q, method="inverted_cdf"))
            assert histogram.percentile(q) == expected

    def test_q_validated(self):
        import pytest

        with pytest.raises(ValueError):
            bucket_percentile({2.0: 1}, 1, 1.5)
