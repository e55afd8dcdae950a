"""Tests for the (ρ, b) token-bucket conformance check."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.network.shaper import is_conforming
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


class TestIsConforming:
    def test_accepts_within_envelope(self):
        assert is_conforming(np.full(10, 2.0), rate=2.0, burst=0.0)
        assert is_conforming(np.asarray([5.0, 0.0, 0.0]), rate=1.0, burst=4.0)

    def test_rejects_violations(self):
        assert not is_conforming(np.asarray([5.0]), rate=1.0, burst=3.0)
        assert not is_conforming(np.full(10, 3.0), rate=2.0, burst=5.0)

    @pytest.mark.parametrize(
        "arrivals, message",
        [
            ([1.0, float("nan"), 1e9], "finite"),
            ([1.0, float("inf")], "finite"),
            ([1.0, -0.5], "non-negative"),
            ([[1.0, 2.0], [3.0, 4.0]], "1-dimensional"),
        ],
        ids=["nan", "inf", "negative", "2-d"],
    )
    def test_rejects_bad_arrivals(self, arrivals, message):
        with pytest.raises(ConfigError, match=message):
            is_conforming(np.asarray(arrivals), rate=1.0, burst=1.0)

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
