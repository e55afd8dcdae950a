"""Pinned stage-envelope behaviour outside the report's regimes.

Theorem 7's coarse young-stage ladder, Figure 3 on clamped geometric grids
and with headroom, the combined controller under overload and the stage
certificate on infeasible streams are all decided by
:class:`~repro.core.stagekernel.StageKernel`.  The report runs none of these
regimes, so its digest cannot catch a drift in them.
``stage_envelope_pinned.json`` holds, for every case below, the sha256 of
the allocation, the delivered bits and the change count (plus the stage
starts and resets), recorded with the earlier division-form envelope
(``low``/``high`` as materialized floats over a convex hull).  These tests
prove the kernel reproduces that path exactly.

Regenerate (only at a commit whose behaviour should become the pin)::

    PYTHONPATH=src python tests/core/test_stage_envelope_pinned.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.combined import CombinedMultiSession
from repro.core.modified_single import ModifiedSingleSessionOnline
from repro.core.offline import stage_certificate
from repro.core.offline_multi import multi_stage_certificate
from repro.core.powers import ClampedQuantizer, GeometricQuantizer
from repro.core.single_session import SingleSessionOnline
from repro.params import OfflineConstraints
from repro.sim.engine import run_multi_session, run_single_session

FIXTURE = Path(__file__).with_name("stage_envelope_pinned.json")

B_A = 64.0
D_O = 8
W = 16
HORIZON = 1500
K = 3
MULTI_HORIZON = 500


# -- streams -----------------------------------------------------------------


def _poisson_spikes() -> np.ndarray:
    rng = np.random.default_rng(1)
    arrivals = rng.poisson(6.0, HORIZON).astype(float)
    arrivals[::97] += 200.0
    return arrivals


def _pareto() -> np.ndarray:
    return np.floor(np.random.default_rng(2).pareto(1.2, HORIZON) * 3.0)


def _onoff() -> np.ndarray:
    rng = np.random.default_rng(3)
    on = np.repeat(rng.random(HORIZON // 25) < 0.4, 25)
    return np.where(on, rng.uniform(0.0, 60.0, HORIZON), 0.0)


def _ramp() -> np.ndarray:
    """Doubling bursts, then a slow drift up and down."""
    arrivals = np.zeros(HORIZON)
    size, t = 1.0, 0
    while size <= B_A * D_O:
        arrivals[t] = size
        size *= 2.0
        t += 3 * D_O
    drift = 20.0 + 18.0 * np.sin(np.arange(HORIZON - t) / 40.0)
    arrivals[t:] = np.round(drift, 3)
    return arrivals


def _fractional() -> np.ndarray:
    return np.random.default_rng(4).gamma(0.4, 25.0, HORIZON)


STREAMS = {
    "poisson": _poisson_spikes,
    "pareto": _pareto,
    "onoff": _onoff,
    "ramp": _ramp,
    "fractional": _fractional,
}


def _overloaded(seed: int) -> np.ndarray:
    """Heavy-tailed per-session traffic whose total often tops ``B_O``.

    Seed 0 also opens with a burst no allocation up to ``B_O`` can serve
    in time, so the run's first slot ends a global stage.
    """
    rng = np.random.default_rng(100 + seed)
    arrivals = np.floor(rng.pareto(1.1, (MULTI_HORIZON, K)) * 6.0)
    if seed == 0:
        arrivals[0] = 3.0 * B_A * (D_O + 1) / K
    return arrivals


# -- cases -------------------------------------------------------------------


def _thm7(utilization):
    return lambda: ModifiedSingleSessionOnline(B_A, D_O, utilization, W)


def _fig3(**kwargs):
    return lambda: SingleSessionOnline(B_A, D_O, 0.25, W, **kwargs)


SINGLE_POLICIES = {
    **{f"thm7-u{u:.4g}": _thm7(u) for u in (0.5, 0.3, 0.25, 0.2, 0.1, 1 / 16)},
    "fig3-geo3": _fig3(quantizer=ClampedQuantizer(GeometricQuantizer(3.0), B_A)),
    "fig3-geo4": _fig3(quantizer=ClampedQuantizer(GeometricQuantizer(4.0), B_A)),
    "fig3-headroom1.5": _fig3(headroom=1.5),
    "fig3-headroom3": _fig3(headroom=3.0),
}

COMBINED_UTILIZATIONS = (0.25, 0.3, 0.1)


def _digest(*values) -> str:
    h = hashlib.sha256()
    for value in values:
        if isinstance(value, np.ndarray):
            h.update(f"{value.dtype.str}{value.shape}".encode())
            h.update(np.ascontiguousarray(value).tobytes())
        else:
            h.update(repr(value).encode())
    return h.hexdigest()


def _single_case(policy_name: str, stream_name: str):
    def run() -> str:
        trace = run_single_session(
            SINGLE_POLICIES[policy_name](), STREAMS[stream_name]()
        )
        return _digest(
            trace.allocation,
            trace.delivered,
            trace.change_count,
            trace.stage_starts,
            trace.resets,
        )

    return run


def _combined_case(inner: str, utilization: float, seed: int):
    def run() -> str:
        policy = CombinedMultiSession(K, B_A, D_O, utilization, W, inner=inner)
        trace = run_multi_session(policy, _overloaded(seed))
        return _digest(
            trace.regular_allocation,
            trace.overflow_allocation,
            trace.extra_allocation,
            trace.delivered,
            trace.change_count,
            trace.stage_starts,
            trace.resets,
            policy.global_link.changes,
        )

    return run


def _certificate_case(stream_name: str, utilization: float):
    def run() -> str:
        offline = OfflineConstraints(B_A, D_O, utilization, W)
        return _digest(stage_certificate(STREAMS[stream_name](), offline).intervals)

    return run


def _multi_certificate_case(seed: int):
    def run() -> str:
        return _digest(multi_stage_certificate(_overloaded(seed), B_A, D_O).intervals)

    return run


CASES = {
    **{
        f"single/{p}/{s}": _single_case(p, s)
        for p in SINGLE_POLICIES
        for s in STREAMS
    },
    **{
        f"combined/{inner}/u{u:.4g}/seed{seed}": _combined_case(inner, u, seed)
        for inner in ("phased", "continuous")
        for u in COMBINED_UTILIZATIONS
        for seed in range(4)
    },
    **{
        f"certificate/{s}/u{u:.4g}": _certificate_case(s, u)
        for s in STREAMS
        for u in (0.5, 0.25, 0.1)
    },
    **{f"multi-certificate/seed{seed}": _multi_certificate_case(seed) for seed in range(4)},
}


def _pinned() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case():
    assert sorted(_pinned()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_pinned_digest(name):
    assert CASES[name]() == _pinned()[name]


def test_certificates_are_not_empty():
    """The certificate cases do certify offline changes (the pin is not
    a digest of empty interval tuples)."""
    offline = OfflineConstraints(B_A, D_O, 0.25, W)
    for make in STREAMS.values():
        assert stage_certificate(make(), offline).lower_bound > 0


def test_combined_cases_reset_globally():
    """Every overloaded combined case fires a GLOBAL RESET, and seed 0's
    first slot ends a global stage with ``B_glob`` above ``B_O``."""
    for inner in ("phased", "continuous"):
        for seed in range(4):
            policy = CombinedMultiSession(K, B_A, D_O, 0.25, W, inner=inner)
            run_multi_session(policy, _overloaded(seed))
            assert policy.resets
        policy = CombinedMultiSession(K, B_A, D_O, 0.25, W, inner=inner)
        run_multi_session(policy, _overloaded(0))
        assert policy.resets[0] == 0
        # The run opens at B_glob = 1; the reset at slot 0 moves it past B_O.
        opening = [c.new for c in policy.global_link.changes if c.t == 0]
        assert opening[0] == 1.0 and opening[-1] > B_A


def main(argv: list[str]) -> int:
    if argv != ["--write"]:
        print(__doc__)
        return 2
    pinned = {name: CASES[name]() for name in sorted(CASES)}
    FIXTURE.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(pinned)} digests to {FIXTURE}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
