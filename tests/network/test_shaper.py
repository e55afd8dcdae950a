"""Tests for the (ρ, b) token-bucket conformance check.

Footnote 1's token bucket with ``ρ = B_O`` and ``b = D_O·B_O`` is the
Claim 9 envelope, and E-ROB's ``claim9 ok`` column checks it with the
certificate helpers :func:`~repro.verify.certificates.claim9_series` and
:func:`~repro.verify.certificates.claim9_violations`.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.verify.certificates import claim9_series, claim9_violations
from tests.strategies import FUZZ_EXAMPLES

_FUZZ = settings(max_examples=FUZZ_EXAMPLES, deadline=None)

#: Whole-number arrivals with dyadic bandwidths: every sum below is exact
#: in float64, so the O(T) check and the all-windows check must agree on
#: every boundary case, equality included.
exact_arrivals = st.lists(
    st.integers(min_value=0, max_value=20).map(float), max_size=40
)
quarter_rates = st.integers(min_value=0, max_value=40).map(lambda n: n / 4)


def _conforming(arrivals, bandwidth: float, delay: float) -> bool:
    """Within ``IN(any window of w slots) <= bandwidth·(w + delay)``?"""
    return claim9_violations(*claim9_series(arrivals, bandwidth, delay)).size == 0


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
        assert _conforming(np.full(10, 2.0), bandwidth=2.0, delay=0)
        assert _conforming(np.asarray([5.0, 0.0, 0.0]), bandwidth=1.0, delay=4)

    def test_rejects_violations(self):
        assert not _conforming(np.asarray([5.0]), bandwidth=1.0, delay=3)
        assert not _conforming(np.full(10, 3.0), bandwidth=2.0, delay=2.5)

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
            _conforming(np.asarray(arrivals), bandwidth=1.0, delay=1)

    @_FUZZ
    @given(arrivals=exact_arrivals, bandwidth=quarter_rates, delay=st.integers(0, 40))
    def test_matches_all_windows_exactly(self, arrivals, bandwidth, delay):
        expected = _worst_window_excess(arrivals, bandwidth, delay * bandwidth) <= 0.0
        assert _conforming(np.asarray(arrivals), bandwidth, delay) == expected
