"""Arena micro-benchmark: epoch allocators + tournament cache economics.

Not a paper artifact — this tracks the two arena-specific costs:

1. ``maxmin_k4`` / ``tier_k4`` — the new epoch allocators
   (:class:`MaxMinFairAllocator`, :class:`PriorityTierAllocator`) over
   piecewise-constant multi-session arrivals, scalar fast loop vs the
   vectorized engine, in slots/second.  Bit-identity is asserted per
   workload, exactly as in ``bench_engine.py``.
2. ``tournament_cold_warm`` — one small tournament grid, cold cache vs
   warm cache, reported through the same row shape (``scalar`` = cold,
   ``vector`` = warm, so ``speedup`` is the cache win and ``identical``
   is the scorecard byte-identity contract).

Results land in the ``arena`` section of ``BENCH_PERF.json`` (merging
with the sections owned by ``bench_parallel.py`` / ``bench_engine.py``);
the row shape is engine-bench compatible on purpose.

Run directly (``python benchmarks/bench_arena.py --scale 1.0``) or let
the CI arena-smoke job invoke it at a smaller scale.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))  # tests.references
from bench_parallel import PERF_SCHEMA  # noqa: E402

from repro.arena import TournamentConfig, run_tournament, scorecard_json  # noqa: E402
from repro.core.maxminfair import MaxMinFairAllocator  # noqa: E402
from repro.core.prioritytier import PriorityTierAllocator  # noqa: E402
from repro.runner import ContentCache  # noqa: E402
from repro.sim.engine import run_multi_session  # noqa: E402
from repro.sim.vector import multi_vector_capable  # noqa: E402
from repro.version import __version__  # noqa: E402
from tests.references import scalar_reference  # noqa: E402

SEGMENT = 8000

REPS = 3


def _best_of(fn, reps: int = REPS) -> tuple[object, float]:
    best = float("inf")
    result = None
    for _ in range(reps):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return result, best


def _piecewise(rng: np.random.Generator, horizon: int, k: int) -> np.ndarray:
    pieces = max(1, horizon // SEGMENT)
    levels = rng.uniform(0.5, 4.0, size=(pieces, k))
    return np.repeat(levels, SEGMENT, axis=0)[:horizon]


def _multi_traces_equal(a, b) -> bool:
    return (
        np.array_equal(a.regular_allocation, b.regular_allocation)
        and np.array_equal(a.delivered, b.delivered)
        and np.array_equal(a.backlog, b.backlog)
        and a.delay_histograms == b.delay_histograms
        and a.local_changes == b.local_changes
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


def bench_allocator(name: str, factory, seed: int, scale: float, k: int = 4) -> dict:
    horizon = max(SEGMENT, int(100_000 * scale))
    arrivals = _piecewise(np.random.default_rng(seed), horizon, k)
    scalar, scalar_s = _best_of(
        lambda: run_multi_session(scalar_reference(factory(k)), arrivals)
    )
    vector, vector_s = _best_of(
        lambda: run_multi_session(factory(k), arrivals)
    )
    slots = len(scalar.delivered)
    return _workload(
        name, slots, scalar_s, vector_s, _multi_traces_equal(scalar, vector)
    )


def _max_min(k: int) -> MaxMinFairAllocator:
    return MaxMinFairAllocator(k, capacity=8.0 * k, period=8)


def _priority(k: int) -> PriorityTierAllocator:
    return PriorityTierAllocator(k, capacity=8.0 * k, period=8)


def require_fast_path() -> None:
    """Exit 1 unless the epoch allocators take the session-major slice path.

    A run that silently fell back to scalar steps would still pass the
    identity check, so the check alone cannot catch it.
    """
    for factory in (_max_min, _priority):
        policy = factory(4)
        if not multi_vector_capable(policy):
            raise SystemExit(
                f"FATAL: {type(policy).__name__} is no longer multi_vector_capable"
            )


def bench_tournament(seed: int, scale: float) -> dict:
    config = TournamentConfig(
        policies=("max-min", "priority-tier", "equal-split"),
        traffic=("uniform", "smooth"),
        faults=(0.0,),
        k=4,
        horizon=max(128, int(256 * scale)),
        seed=seed,
    )
    slots = len(config.cells()) * config.horizon
    with tempfile.TemporaryDirectory() as tmp:
        cache = ContentCache(tmp)
        cold_report, cold_s = _best_of(
            lambda: run_tournament(config, cache=cache), reps=1
        )
        warm_report, warm_s = _best_of(
            lambda: run_tournament(config, cache=cache), reps=1
        )
    identical = (
        cold_report.ok
        and warm_report.ok
        and warm_report.from_cache == len(config.cells())
        and scorecard_json(cold_report.scorecard)
        == scorecard_json(warm_report.scorecard)
    )
    return _workload("tournament_cold_warm", slots, cold_s, warm_s, identical)


def run_bench(seed: int, scale: float, out: Path) -> dict:
    require_fast_path()
    workloads = [
        bench_allocator("maxmin_k4", _max_min, seed, scale),
        bench_allocator("tier_k4", _priority, seed, scale),
        bench_tournament(seed, scale),
    ]
    arena = {
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
    report["arena"] = arena
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return arena


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--out", type=Path, default=Path("BENCH_PERF.json"))
    args = parser.parse_args(argv)

    arena = run_bench(args.seed, args.scale, args.out)
    for row in arena["workloads"]:
        print(
            f"{row['name']:>20}: scalar {row['scalar_slots_per_sec']:>12,.0f} "
            f"vector {row['vector_slots_per_sec']:>12,.0f} slots/s "
            f"(x{row['speedup']})"
        )
    print(f"identity contracts held: {arena['identical']}")
    if not arena["identical"]:
        print("FATAL: arena identity contract broke", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
