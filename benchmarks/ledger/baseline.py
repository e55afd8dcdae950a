"""Measure the ledger's run-to-run spread and write ``baseline.json``.

    python3 benchmarks/ledger/baseline.py

Every run is a fresh ``run.py`` process, one at a time:

1. set A: :data:`RUNS` untraced runs of every workload at seed 0;
2. set B: the same, with the workload order reversed;
3. one traced run of every workload at seed 0;
4. two seed sweeps, the second in reversed workload order: one untraced
   run of every workload at each seed ``0 .. SEEDS-1``.

For each end-to-end metric it records, per set and per sweep, the median
and quartiles (``statistics.quantiles(values, n=4)``) and the spread
``(q3 - q1) / median``, and whether the second set's (or sweep's) median
is worse than the first's by no more than the metric's bound.  These
spreads are what the bounds in ``BENCHMARK.json`` rest on.  Takes about
an hour.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parents[1] / "src")]

from run import END_TO_END, ROOT, RUN_SECONDS, spawn  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

RUNS = 5
SEEDS = 10
_KEEP = (
    "seed", "passes", "pass_wall_s", "pass_host_factor", "scaled_wall_s", "setup_rep_s", "digest",
    "attempted", "failed", "metrics",
)


def _run(name: str, seed: int, trace: int) -> dict:
    record = spawn(name, seed, RUN_SECONDS, trace)
    out = {key: record[key] for key in _KEEP}
    out.update(record.get("extra", {}))
    return out


def _series(order: list[str], seeds) -> dict[str, list[dict]]:
    runs = {name: [] for name in order}
    for seed in seeds:
        for name in order:
            runs[name].append(_run(name, seed, 0))
    return runs


def _summary(runs: list[dict]) -> dict:
    summary = {}
    for metric in END_TO_END:
        values = [run["metrics"][metric.name] for run in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        summary[metric.name] = {
            "values": values,
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median,
            "within_bound": (q3 - q1) / median <= metric.bound,
        }
    # The pass wall time before host-speed scaling, to show what scaling buys.
    q1, median, q3 = statistics.quantiles([run["raw_wall_s"] for run in runs], n=4)
    summary["raw_wall_s"] = {"median": median, "spread": (q3 - q1) / median}
    return summary


def _pair(first: list[dict], second: list[dict]) -> dict:
    """Both series, and whether the second's medians stay within bounds."""
    a, b = _summary(first), _summary(second)
    return {
        "first": {"runs": first, "summary": a},
        "second": {"runs": second, "summary": b},
        "second_within_bound": {
            m.name: b[m.name]["median"] <= a[m.name]["median"] * (1 + m.bound) for m in END_TO_END
        },
        "failed_attempted": sorted({(r["failed"], r["attempted"]) for r in first + second}),
    }


def _git_rev() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return proc.stdout.strip()


def main() -> int:
    names = list(WORKLOADS)
    started = time.time()
    set_a = _series(names, [0] * RUNS)
    set_b = _series(names[::-1], [0] * RUNS)
    traced = {name: _run(name, 0, 1) for name in names}
    sweep_1 = _series(names, range(SEEDS))
    sweep_2 = _series(names[::-1], range(SEEDS))
    workloads = {}
    for name in names:
        seed0 = _pair(set_a[name], set_b[name])
        untraced_wall = seed0["first"]["summary"]["wall_s"]["median"]
        workloads[name] = {
            "seed0_sets": seed0,
            "seed_sweeps": _pair(sweep_1[name], sweep_2[name]),
            "traced": traced[name],
            "trace_overhead_frac": traced[name]["scaled_wall_s"] / untraced_wall - 1.0,
        }
    doc = {
        "host": platform.node(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_rev": _git_rev(),
        "created_unix": started,
        "run_seconds": RUN_SECONDS,
        "bounds": {m.name: m.bound for m in END_TO_END},
        "bulk_commit": {
            name: {
                key: traced[name]["metrics"][f"sim.{key}"]
                for key in ("vector.bulk_frac", "vector.mean_slice", "engine.general_slots")
            }
            for name in names
        },
        "workloads": workloads,
    }
    (HERE / "baseline.json").write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
