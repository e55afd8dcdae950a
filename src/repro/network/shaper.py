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

    The (ρ, b) envelope with ``ρ = rate`` and ``b = burst``, and with
    ``rate = B_O``, ``burst = D_O·B_O`` the Claim 9 envelope.  Checked in
    O(T) with one running minimum: ``G(t) = C(t) - rate·t`` over the
    cumulative arrivals ``C``, and every window ending at slot ``t`` is
    within the envelope iff ``G(t+1) - min_{u<=t} G(u) <= burst``
    (tolerance 1e-9).
    """
    if rate < 0 or burst < 0:
        raise ConfigError(f"need rate, burst >= 0, got {rate!r}, {burst!r}")
    arrivals = np.asarray(arrivals, dtype=float)
    cumulative = np.add.accumulate(np.concatenate(([0.0], arrivals)))
    g = cumulative - rate * np.arange(len(cumulative))
    floor = np.minimum.accumulate(g[:-1])
    return not bool(np.any(g[1:] - floor > burst + 1e-9))
