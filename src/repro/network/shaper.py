"""The ``(rate, burst)`` token-bucket conformance check.

A ``(rate, burst)`` token bucket is the standard way a 1990s network edge
enforced the feasibility assumption the paper makes (footnote 1): traffic
conforming to a token bucket with ``rate <= B_O`` and
``burst <= B_O · D_O`` satisfies the Claim 9 arrival envelope, so every
algorithm's guarantees apply.
"""

from __future__ import annotations

import numpy as np

from repro.core.envelope import arrival_array
from repro.errors import ConfigError


def is_conforming(arrivals: np.ndarray, rate: float, burst: float) -> bool:
    """Does the series satisfy ``IN(any window of w slots) <= rate·w + burst``?

    The (ρ, b) envelope with ``ρ = rate`` and ``b = burst``, and with
    ``rate = B_O``, ``burst = D_O·B_O`` the Claim 9 envelope.  Checked in
    O(T) with one running minimum: ``G(t) = C(t) - rate·t`` over the
    cumulative arrivals ``C``, and every window ending at slot ``t`` is
    within the envelope iff ``G(t+1) - min_{u<=t} G(u) <= burst``
    (tolerance 1e-9).  ``arrivals`` must be 1-D, finite and non-negative.
    """
    if rate < 0 or burst < 0:
        raise ConfigError(f"need rate, burst >= 0, got {rate!r}, {burst!r}")
    arrivals = arrival_array(arrivals)
    cumulative = np.add.accumulate(np.concatenate(([0.0], arrivals)))
    g = cumulative - rate * np.arange(len(cumulative))
    floor = np.minimum.accumulate(g[:-1])
    return not bool(np.any(g[1:] - floor > burst + 1e-9))
