"""Token-bucket traffic shaping.

A ``(rate, burst)`` token bucket is the standard way a 1990s network edge
enforced the feasibility assumption the paper makes (footnote 1): traffic
conforming to a token bucket with ``rate <= B_O`` and
``burst <= B_O · D_O`` satisfies the Claim 9 arrival envelope, so every
algorithm's guarantees apply.  The shaper here both *checks* conformance
and *enforces* it by delaying excess bits in a shaping queue.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError


class TokenBucket:
    """Stateful token-bucket shaper."""

    def __init__(self, rate: float, burst: float):
        if rate <= 0:
            raise ConfigError(f"rate must be > 0, got {rate!r}")
        if burst < 0:
            raise ConfigError(f"burst must be >= 0, got {burst!r}")
        self.rate = float(rate)
        self.burst = float(burst)
        self._tokens = float(burst)
        self._backlog = 0.0

    @property
    def backlog(self) -> float:
        """Bits currently delayed inside the shaper."""
        return self._backlog

    def offer(self, bits: float) -> float:
        """Offer one slot's arrivals; return the conforming output bits.

        Tokens accrue, bits are served, and only the *leftover* tokens are
        capped at the bucket depth — so a zero-depth bucket still passes
        ``rate`` bits per slot, and output windows obey
        ``out(w slots) <= rate * w + burst``.
        """
        if bits < 0:
            raise ConfigError(f"bits must be >= 0, got {bits!r}")
        self._tokens += self.rate
        self._backlog += bits
        out = min(self._backlog, self._tokens)
        self._tokens -= out
        if self._tokens > self.burst:
            self._tokens = self.burst
        self._backlog -= out
        return out

    def shape(self, arrivals: np.ndarray, drain: bool = True) -> np.ndarray:
        """Shape a whole series; optionally extend until the backlog drains."""
        arrivals = np.asarray(arrivals, dtype=float)
        out = [self.offer(float(bits)) for bits in arrivals]
        while drain and self._backlog > 1e-9:
            out.append(self.offer(0.0))
        return np.asarray(out, dtype=float)


def is_conforming(arrivals: np.ndarray, rate: float, burst: float) -> bool:
    """Does the series satisfy ``IN(any window of w slots) <= rate·w + burst``?

    Checked in O(T) via the running-minimum transform (same algebra as the
    Claim 9 certificate).
    """
    arrivals = np.asarray(arrivals, dtype=float)
    cumulative = 0.0
    minimum = 0.0
    for t, bits in enumerate(arrivals):
        previous = cumulative - rate * t
        if previous < minimum:
            minimum = previous
        cumulative += bits
        if cumulative - rate * (t + 1) - minimum > burst + 1e-9:
            return False
    return True
