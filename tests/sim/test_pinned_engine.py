"""Pinned engine behaviour: faulted and telemetry-on runs, bit for bit.

``pinned_engine.json`` holds, for every case below, the sha256 of the
finalized trace (every field, arrays bit-exact: the same digest the
benchmark ledger computes) and, for telemetry-on cases, the engine
histograms' counts, totals and bucket counts.  The fixture was recorded
with the engine's earlier per-slot general loop, so these tests prove the
single incremental engine reproduces it exactly.

Regenerate (only at a commit whose behaviour should become the pin)::

    PYTHONPATH=src python tests/sim/test_pinned_engine.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from repro.core.baselines import StaticAllocator
from repro.core.combined import CombinedMultiSession
from repro.core.continuous import ContinuousMultiSession
from repro.core.phased import PhasedMultiSession
from repro.core.single_session import SingleSessionOnline
from repro.errors import SimulationError
from repro.faults import (
    HeadroomPolicy,
    RetryPolicy,
    install_signaling,
    standard_plan,
)
from repro.obs import telemetry_session
from repro.params import OfflineConstraints
from repro.sim.engine import run_multi_session, run_single_session
from repro.traffic import generate_feasible_stream, generate_multi_feasible

FIXTURE = Path(__file__).with_name("pinned_engine.json")

OFFLINE = OfflineConstraints(64.0, 8, 0.25, 16)
RETRY = RetryPolicy(max_attempts=4, base_backoff=1, backoff_factor=2.0)
SINGLE_HORIZON = 1500
MULTI_K = 3
MULTI_HORIZON = 800


def _feed(h, value) -> None:
    if isinstance(value, np.ndarray):
        h.update(f"{value.dtype.str}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, dict):
        h.update(f"dict{len(value)}".encode())
        for key in sorted(value):
            h.update(repr(key).encode())
            _feed(h, value[key])
    elif isinstance(value, (list, tuple)):
        h.update(f"seq{len(value)}".encode())
        for item in value:
            _feed(h, item)
    else:
        h.update(repr(value).encode())


def trace_digest(trace) -> str:
    """sha256 over every field of a finalized trace, arrays bit-exact."""
    h = hashlib.sha256()
    for f in fields(trace):
        h.update(f.name.encode())
        _feed(h, getattr(trace, f.name))
    return h.hexdigest()


def _fig3() -> SingleSessionOnline:
    return SingleSessionOnline(
        OFFLINE.bandwidth, OFFLINE.delay, OFFLINE.utilization, OFFLINE.window
    )


def _feasible() -> np.ndarray:
    return generate_feasible_stream(
        OFFLINE, SINGLE_HORIZON, seed=5, burstiness="blocks"
    ).arrivals


def _raw() -> np.ndarray:
    rng = np.random.default_rng(7)
    arrivals = rng.poisson(20.0, size=SINGLE_HORIZON).astype(float)
    arrivals[::97] += 300.0
    return arrivals


def _multi_arrivals() -> np.ndarray:
    return generate_multi_feasible(
        MULTI_K, 64.0, 8, MULTI_HORIZON, seed=4, burstiness="blocks",
        concentration=0.7,
    ).arrivals


def _single(policy_fn, intensity, arrivals_fn=_feasible, **kwargs):
    def run():
        arrivals = arrivals_fn()
        plan = standard_plan(intensity, len(arrivals), seed=3)
        return run_single_session(policy_fn(plan), arrivals, faults=plan, **kwargs)

    return run


def _multi(policy_fn, intensity, drain=False):
    # Without the drain tail: under heavy faults the multi-session policies
    # can strand overflow bits, and a stalled run has no trace to pin.
    def run():
        arrivals = _multi_arrivals()
        plan = standard_plan(intensity, len(arrivals), seed=3)
        return run_multi_session(
            policy_fn(plan), arrivals, faults=plan, drain=drain
        )

    return run


def _phased(plan=None):
    return PhasedMultiSession(MULTI_K, offline_bandwidth=64.0, offline_delay=8)


def _continuous(plan=None):
    return ContinuousMultiSession(MULTI_K, offline_bandwidth=64.0, offline_delay=8)


def _combined(plan=None):
    return CombinedMultiSession(MULTI_K, 64.0, 8, 0.25, 16)


def _signaled(factory):
    """A policy from ``factory`` with the signaling plane installed."""

    def build(plan):
        policy = factory()
        install_signaling(policy, plan, RETRY)
        return policy

    return build


#: name -> zero-argument run returning a finalized trace.
FAULT_CASES = {}
for _intensity in (0.3, 0.6):
    FAULT_CASES.update(
        {
            f"single/bare/{_intensity}": _single(lambda plan: _fig3(), _intensity),
            f"single/signaling+retry/{_intensity}": _single(
                _signaled(_fig3), _intensity
            ),
            f"single/headroom/{_intensity}": _single(
                lambda plan: HeadroomPolicy(_fig3(), 1.5), _intensity
            ),
            f"single/signaling+headroom/{_intensity}": _single(
                _signaled(lambda: HeadroomPolicy(_fig3(), 1.5)),
                _intensity,
            ),
            f"single/bare-raw/{_intensity}": _single(
                lambda plan: _fig3(), _intensity, arrivals_fn=_raw,
                max_drain_slots=50_000,
            ),
            f"multi/phased/{_intensity}": _multi(_phased, _intensity),
            f"multi/phased+signaling/{_intensity}": _multi(
                _signaled(_phased), _intensity
            ),
            f"multi/continuous+signaling/{_intensity}": _multi(
                _signaled(_continuous), _intensity
            ),
            f"multi/combined+signaling/{_intensity}": _multi(
                _signaled(_combined), _intensity
            ),
        }
    )
FAULT_CASES.update(
    {
        "multi/phased+signaling-drained/0.3": _multi(
            _signaled(_phased), 0.3, drain=True
        ),
        "multi/phased-drained/0.3": _multi(_phased, 0.3, drain=True),
        "single/capacity/0.6": _single(
            _signaled(_fig3), 0.6,
            queue_capacity=300.0,
        ),
        "single/capacity-static/0.3": _single(
            lambda plan: StaticAllocator(40.0), 0.3, arrivals_fn=_raw,
            queue_capacity=500.0,
        ),
    }
)

#: name -> (run, histogram prefix) for the telemetry-on cases.
TELEMETRY_CASES = {
    "single/telemetry": (
        lambda: run_single_session(_fig3(), _feasible()),
        "engine.single.",
    ),
    "single/telemetry+faults": (FAULT_CASES["single/signaling+retry/0.3"], "engine.single."),
    "multi/telemetry": (
        lambda: run_multi_session(_phased(), _multi_arrivals()),
        "engine.multi.",
    ),
    "multi/telemetry+faults": (
        FAULT_CASES["multi/combined+signaling/0.6"],
        "engine.multi.",
    ),
}


def _telemetry_record(run, prefix) -> dict:
    with telemetry_session() as tele:
        trace = run()
        snapshot = tele.registry.snapshot()
    histograms = {
        name: {
            "count": hist["count"],
            "total": hist["total"],
            "min": hist["min"],
            "max": hist["max"],
            "buckets": hist["buckets"],
        }
        for name, hist in snapshot["histograms"].items()
        if name.startswith(prefix)
    }
    counters = {
        name: value
        for name, value in snapshot["counters"].items()
        if name.startswith(prefix)
    }
    return {
        "trace": trace_digest(trace),
        "histograms": histograms,
        "counters": counters,
    }


def outcome(run) -> str:
    """The run's trace digest, or its error message when it stalls."""
    try:
        return trace_digest(run())
    except SimulationError as exc:
        return f"SimulationError: {exc}"


def record_all() -> dict:
    return {
        "faults": {name: outcome(run) for name, run in FAULT_CASES.items()},
        "telemetry": {
            name: _telemetry_record(run, prefix)
            for name, (run, prefix) in TELEMETRY_CASES.items()
        },
    }


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("name", sorted(FAULT_CASES))
def test_faulted_trace_matches_pin(pinned, name):
    assert outcome(FAULT_CASES[name]) == pinned["faults"][name]


@pytest.mark.parametrize("name", sorted(TELEMETRY_CASES))
def test_telemetry_run_matches_pin(pinned, name):
    run, prefix = TELEMETRY_CASES[name]
    assert _telemetry_record(run, prefix) == pinned["telemetry"][name]


def test_fixture_covers_every_case(pinned):
    assert sorted(pinned["faults"]) == sorted(FAULT_CASES)
    assert sorted(pinned["telemetry"]) == sorted(TELEMETRY_CASES)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_pinned_engine.py --write")
    FIXTURE.write_text(json.dumps(record_all(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
