"""Vectorized-engine benchmark: event-sliced bulk commits vs scalar loops.

Not a paper artifact — this measures the ``repro.sim.vector`` engine core
against the scalar fast loops it replaces, in slots/second:

1. ``single_piecewise`` — one :class:`SingleSessionOnline` over a
   piecewise-constant arrival stream (constant rate per segment): long
   quiet runs between allocation events.
2. ``single_certified`` — the same policy over a certified feasible
   stream (:func:`repro.traffic.feasible.generate_feasible_stream`), whose
   queue is backlogged in a large share of slots: the policy-quiet slices
   and their fused FIFO replay.
3. ``multi_k2`` / ``multi_k8`` — :class:`PhasedMultiSession` over calm
   per-session piecewise-constant rates, exercising the session-major
   slices (one ``replay_fifo`` call per session up to its next local
   event, no-op phase ends booked in bulk).
4. ``batched_64`` — 64 independent sessions, one
   :func:`~repro.sim.engine.run_single_session` each, vs the same loop
   on scalar twins.

Every vectorized run must be **bit-identical** to its scalar twin (the
engine's core guarantee — asserted per workload and recorded as
``engine.identical``).  A scalar twin is the same policy retyped as a
trivial subclass (:func:`tests.references.scalar_reference`): the
engines slice only exact policy types, so it takes the scalar step at
every slot.  Results land in the ``engine`` section of
``BENCH_PERF.json`` (merging with ``bench_parallel.py``'s sections).

Run directly (``python benchmarks/bench_engine.py --scale 1.0``) or let
CI invoke it at a smaller scale; ``validate()`` schema-checks the output.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))  # tests.references
from bench_parallel import PERF_SCHEMA, validate  # noqa: E402,F401

from repro.core.phased import PhasedMultiSession  # noqa: E402
from repro.core.single_session import SingleSessionOnline  # noqa: E402
from repro.params import OfflineConstraints  # noqa: E402
from repro.sim.engine import run_multi_session, run_single_session  # noqa: E402
from repro.sim.vector import multi_vector_capable, vector_capable  # noqa: E402
from repro.traffic.feasible import generate_feasible_stream  # noqa: E402
from repro.version import __version__  # noqa: E402
from tests.references import scalar_reference  # noqa: E402

#: Constant-rate segment length of the piecewise-constant workloads.  Long
#: enough that quiet keep-up runs dominate the climb transients after each
#: rate switch — the regime the event-sliced kernel targets.
SEGMENT = 8000

REPS = 3


def _best_of(fn, reps: int = REPS) -> tuple[object, float]:
    """Return ``fn()``'s result and the fastest of ``reps`` timings."""
    best = float("inf")
    result = None
    for _ in range(reps):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return result, best


def _piecewise(rng: np.random.Generator, horizon: int, low: float, high: float,
               k: int | None = None) -> np.ndarray:
    """Piecewise-constant rates: one uniform level per SEGMENT-slot piece."""
    pieces = max(1, horizon // SEGMENT)
    shape = (pieces,) if k is None else (pieces, k)
    levels = rng.uniform(low, high, size=shape)
    return np.repeat(levels, SEGMENT, axis=0)[:horizon]


def _single_traces_equal(a, b) -> bool:
    columns = (
        "arrivals", "allocation", "delivered", "backlog", "dropped", "requested", "effective",
    )
    return (
        all(np.array_equal(getattr(a, c), getattr(b, c)) for c in columns)
        and a.delay_histogram == b.delay_histogram
        and a.changes == b.changes
        and a.stage_starts == b.stage_starts
        and a.resets == b.resets
    )


def _multi_traces_equal(a, b) -> bool:
    return (
        np.array_equal(a.regular_allocation, b.regular_allocation)
        and np.array_equal(a.overflow_allocation, b.overflow_allocation)
        and np.array_equal(a.delivered, b.delivered)
        and np.array_equal(a.backlog, b.backlog)
        and a.delay_histograms == b.delay_histograms
    )


def _workload(name, slots, scalar_seconds, vector_seconds, identical) -> dict:
    return {
        "name": name,
        "slots": slots,
        "scalar_seconds": round(scalar_seconds, 4),
        "vector_seconds": round(vector_seconds, 4),
        "scalar_slots_per_sec": round(slots / max(scalar_seconds, 1e-9), 1),
        "vector_slots_per_sec": round(slots / max(vector_seconds, 1e-9), 1),
        "speedup": round(scalar_seconds / max(vector_seconds, 1e-9), 2),
        "identical": identical,
    }


def _single_policy() -> SingleSessionOnline:
    return SingleSessionOnline(
        max_bandwidth=64, offline_delay=8, offline_utilization=0.25, window=16
    )


def _multi_policy(k: int) -> PhasedMultiSession:
    return PhasedMultiSession(k, offline_bandwidth=8.0 * k, offline_delay=8)


def require_fast_path() -> None:
    """Exit 1 unless the workloads' policies take the fast path.

    A run that silently fell back to scalar steps would still pass the
    identity check, so the check alone cannot catch it.
    """
    if not vector_capable(_single_policy()):
        raise SystemExit("FATAL: SingleSessionOnline is no longer vector_capable")
    if not multi_vector_capable(_multi_policy(2)):
        raise SystemExit("FATAL: PhasedMultiSession is no longer multi_vector_capable")


def bench_single(seed: int, scale: float) -> dict:
    horizon = max(SEGMENT, int(400_000 * scale))
    rng = np.random.default_rng(seed)
    arrivals = _piecewise(rng, horizon, 1.0, 12.0)
    scalar, scalar_s = _best_of(
        lambda: run_single_session(scalar_reference(_single_policy()), arrivals)
    )
    vector, vector_s = _best_of(
        lambda: run_single_session(_single_policy(), arrivals)
    )
    slots = len(scalar.allocation)
    return _workload(
        "single_piecewise", slots, scalar_s, vector_s,
        _single_traces_equal(scalar, vector),
    )


def bench_single_certified(seed: int, scale: float) -> dict:
    horizon = max(SEGMENT, int(400_000 * scale))
    offline = OfflineConstraints(64.0, 8, 0.25, 16)
    arrivals = generate_feasible_stream(offline, horizon, seed=seed).arrivals
    scalar, scalar_s = _best_of(
        lambda: run_single_session(scalar_reference(_single_policy()), arrivals)
    )
    vector, vector_s = _best_of(
        lambda: run_single_session(_single_policy(), arrivals)
    )
    return _workload(
        "single_certified", len(scalar.allocation), scalar_s, vector_s,
        _single_traces_equal(scalar, vector),
    )


def bench_multi(seed: int, scale: float, k: int) -> dict:
    horizon = max(SEGMENT, int(100_000 * scale))
    rng = np.random.default_rng(seed + k)
    arrivals = _piecewise(rng, horizon, 0.5, 4.0, k=k)
    scalar, scalar_s = _best_of(
        lambda: run_multi_session(scalar_reference(_multi_policy(k)), arrivals)
    )
    vector, vector_s = _best_of(
        lambda: run_multi_session(_multi_policy(k), arrivals)
    )
    slots = len(scalar.delivered)
    return _workload(
        f"multi_k{k}", slots, scalar_s, vector_s,
        _multi_traces_equal(scalar, vector),
    )


def bench_batched(seed: int, scale: float, sessions: int = 64) -> dict:
    horizon = max(SEGMENT, int(20_000 * scale))
    rng = np.random.default_rng(seed + 1000)
    matrix = np.stack(
        [_piecewise(rng, horizon, 1.0, 12.0) for _ in range(sessions)]
    )

    def scalar_pass():
        return [
            run_single_session(scalar_reference(_single_policy()), row)
            for row in matrix
        ]

    scalar, scalar_s = _best_of(scalar_pass, reps=1)
    vector, vector_s = _best_of(
        lambda: [run_single_session(_single_policy(), row) for row in matrix],
        reps=1,
    )
    identical = all(
        _single_traces_equal(a, b) for a, b in zip(scalar, vector)
    )
    slots = sum(len(trace.allocation) for trace in scalar)
    return _workload(f"batched_{sessions}", slots, scalar_s, vector_s, identical)


def run_bench(seed: int, scale: float, out: Path) -> dict:
    require_fast_path()
    workloads = [
        bench_single(seed, scale),
        bench_single_certified(seed, scale),
        bench_multi(seed, scale, 2),
        bench_multi(seed, scale, 8),
        bench_batched(seed, scale),
    ]
    engine = {
        "config": {"seed": seed, "scale": scale, "segment": SEGMENT},
        "workloads": workloads,
        "identical": all(row.pop("identical") for row in workloads),
    }
    try:
        report = json.loads(out.read_text())
        if not isinstance(report, dict):
            report = {}
    except (OSError, json.JSONDecodeError):
        report = {}
    report["schema"] = PERF_SCHEMA
    report["version"] = __version__
    report["engine"] = engine
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return engine


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--out", type=Path, default=Path("BENCH_PERF.json"))
    args = parser.parse_args(argv)

    engine = run_bench(args.seed, args.scale, args.out)
    for row in engine["workloads"]:
        print(
            f"{row['name']:>16}: scalar {row['scalar_slots_per_sec']:>12,.0f} "
            f"vector {row['vector_slots_per_sec']:>12,.0f} slots/s "
            f"(x{row['speedup']})"
        )
    print(f"traces identical across scalar/vector: {engine['identical']}")
    if not engine["identical"]:
        print("FATAL: vectorized trace diverged from scalar", file=sys.stderr)
        return 1
    print(f"wrote engine section to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
