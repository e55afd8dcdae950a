"""Tests for the token-bucket shaper and the (ρ, b) conformance check."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.feasibility import is_delay_feasible
from repro.errors import ConfigError
from repro.network.shaper import TokenBucket, is_conforming
from repro.traffic.poisson import PoissonArrivals
from repro.traffic.shaped import Shaped
from repro.verify.certificates import claim9_series
from tests.strategies import FUZZ_EXAMPLES

_FUZZ = settings(max_examples=FUZZ_EXAMPLES, deadline=None)

#: Whole-number arrivals with dyadic rates and bursts: every sum below is
#: exact in float64, so the O(T) check and the all-windows check must
#: agree on every boundary case, equality included.
exact_arrivals = st.lists(
    st.integers(min_value=0, max_value=20).map(float), max_size=40
)
quarter_rates = st.integers(min_value=0, max_value=40).map(lambda n: n / 4)


def _per_slot_loop(arrivals, rate, burst) -> tuple[bool, float]:
    """The per-slot loop ``is_conforming`` replaced, with the same float
    operations: the verdict and the worst ``G(t+1) - min G`` seen."""
    cumulative = 0.0
    minimum = 0.0
    worst = -math.inf
    conforming = True
    for t, bits in enumerate(arrivals):
        previous = cumulative - rate * t
        if previous < minimum:
            minimum = previous
        cumulative += bits
        rise = cumulative - rate * (t + 1) - minimum
        worst = max(worst, rise)
        if rise > burst + 1e-9:
            conforming = False
    return conforming, worst


def _worst_window_excess(arrivals, rate, burst) -> float:
    """Largest ``IN(window) - (rate·len + burst)`` over every window."""
    n = len(arrivals)
    return max(
        (
            math.fsum(arrivals[i:j]) - (rate * (j - i) + burst)
            for i in range(n)
            for j in range(i + 1, n + 1)
        ),
        default=-math.inf,
    )


class TestTokenBucket:
    def test_validation(self):
        with pytest.raises(ConfigError):
            TokenBucket(0, 1)
        with pytest.raises(ConfigError):
            TokenBucket(1, -1)
        with pytest.raises(ConfigError):
            TokenBucket(1, 1).offer(-1)

    def test_passes_conforming_traffic_untouched(self):
        bucket = TokenBucket(rate=4.0, burst=10.0)
        out = bucket.shape(np.full(20, 3.0))
        np.testing.assert_allclose(out[:20], 3.0)

    def test_delays_excess(self):
        bucket = TokenBucket(rate=2.0, burst=2.0)
        out = bucket.shape(np.asarray([10.0, 0.0, 0.0]))
        assert out[0] == pytest.approx(4.0)  # burst + one slot of tokens
        assert out.sum() == pytest.approx(10.0)  # drained eventually

    def test_backlog_property(self):
        bucket = TokenBucket(rate=1.0, burst=0.0)
        bucket.offer(5.0)
        assert bucket.backlog == pytest.approx(4.0)

    @settings(max_examples=100, deadline=None)
    @given(
        arrivals=st.lists(st.floats(min_value=0, max_value=50), min_size=1, max_size=60),
        rate=st.floats(min_value=0.5, max_value=10),
        burst=st.floats(min_value=0, max_value=30),
    )
    def test_output_always_conforming(self, arrivals, rate, burst):
        bucket = TokenBucket(rate=rate, burst=burst)
        out = bucket.shape(np.asarray(arrivals))
        assert is_conforming(out, rate, burst)
        assert out.sum() == pytest.approx(sum(arrivals), abs=1e-6)


class TestIsConforming:
    def test_accepts_within_envelope(self):
        assert is_conforming(np.full(10, 2.0), rate=2.0, burst=0.0)
        assert is_conforming(np.asarray([5.0, 0.0, 0.0]), rate=1.0, burst=4.0)

    def test_rejects_violations(self):
        assert not is_conforming(np.asarray([5.0]), rate=1.0, burst=3.0)
        assert not is_conforming(np.full(10, 3.0), rate=2.0, burst=5.0)

    @_FUZZ
    @given(arrivals=exact_arrivals, rate=quarter_rates, half_burst=st.integers(0, 80))
    def test_matches_all_windows_exactly(self, arrivals, rate, half_burst):
        burst = half_burst / 2
        expected = _worst_window_excess(arrivals, rate, burst) <= 0.0
        assert is_conforming(np.asarray(arrivals), rate, burst) == expected

    @_FUZZ
    @given(
        arrivals=st.lists(st.floats(min_value=0, max_value=100), max_size=40),
        rate=st.floats(min_value=0, max_value=20),
        burst=st.floats(min_value=0, max_value=200),
        edge_ulps=st.none() | st.integers(min_value=-2, max_value=2),
    )
    def test_matches_the_per_slot_loop(self, arrivals, rate, burst, edge_ulps):
        # Same float operations, so the same verdict on any input; E-ROB's
        # report bytes depend on it.  With edge_ulps, the worst window sits
        # within a few ulps of the 1e-9 tolerance, on either side.
        if edge_ulps is not None:
            burst = _per_slot_loop(arrivals, rate, 0.0)[1] - 1e-9
            for _ in range(abs(edge_ulps)):
                burst = math.nextafter(burst, math.copysign(math.inf, edge_ulps))
            burst = max(0.0, burst)
        expected, _ = _per_slot_loop(arrivals, rate, burst)
        assert is_conforming(np.asarray(arrivals), rate, burst) == expected

    @_FUZZ
    @given(arrivals=exact_arrivals, bandwidth=quarter_rates, delay=st.integers(1, 8))
    def test_matches_claim9_certificate(self, arrivals, bandwidth, delay):
        # Claim 9's envelope is (ρ, b) = (B_O, D_O·B_O); the certificate
        # module computes it independently.
        excess, _ = claim9_series(np.asarray(arrivals), bandwidth, delay)
        conforming = is_conforming(np.asarray(arrivals), bandwidth, delay * bandwidth)
        assert conforming == bool(excess.max(initial=-np.inf) <= 0.0)


class TestShapedProcess:
    def test_shaped_output_is_feasible(self):
        process = Shaped(PoissonArrivals(8.0), rate=6.0, burst=12.0)
        arrivals = process.materialize(500, seed=0)
        assert is_conforming(arrivals, 6.0, 12.0)
        # Conforming (rate, burst) traffic is (B_O, D_O)-feasible for
        # B_O = rate + burst/D_O.
        assert is_delay_feasible(arrivals, 6.0 + 12.0 / 4, 4)

    def test_reproducible(self):
        process = Shaped(PoissonArrivals(8.0), rate=6.0, burst=12.0)
        a = process.materialize(100, seed=3)
        b = process.materialize(100, seed=3)
        np.testing.assert_array_equal(a, b)
