"""Shared fixtures for the benchmark harness.

The benchmarks here time kernels and instrumentation overhead
(``bench_kernel.py``, ``bench_obs.py``); per-experiment wall-clock lives
in the ledger (``benchmarks/ledger/``, one ``experiments.<ID>.wall_s``
line per experiment).

The whole bench session runs inside one :mod:`repro.obs` telemetry
session, and ``pytest_sessionfinish`` aggregates everything machine-
readable into ``BENCH_OBS.json`` at the repo root: per-benchmark wall
timings, the engines' profiling records (slots/sec throughput), and the
session's metric counters.  The aggregation is *validated*, not
best-effort: a session that executed benchmarks but produced an empty
``benchmarks`` array (pytest-benchmark silently disables itself under
xdist, for one) fails the run instead of shipping a hollow artifact.
"""

from __future__ import annotations

import json
import platform
import sys

import pytest

from repro.obs import Telemetry, set_telemetry
from repro.obs.manifest import git_revision
from repro.version import __version__

#: Schema version of BENCH_OBS.json (bump on breaking layout changes).
BENCH_OBS_SCHEMA = 1

_session_telemetry = Telemetry()
_benchmark_tests_ran = 0


@pytest.fixture(scope="session", autouse=True)
def _obs_session():
    """Run every benchmark under one live telemetry session.

    Benchmarks therefore time the *instrumented* engine — the mode the
    acceptance criteria bound at < 5% overhead — and the profiling hooks'
    slots/sec records land in BENCH_OBS.json for free.
    """
    set_telemetry(_session_telemetry)
    try:
        yield _session_telemetry
    finally:
        set_telemetry(None)


def pytest_runtest_setup(item):
    """Count executed benchmark-fixture tests, for aggregation validation."""
    global _benchmark_tests_ran
    if "benchmark" in getattr(item, "fixturenames", ()):
        _benchmark_tests_ran += 1


def _benchmark_rows(session) -> list[dict]:
    """Per-benchmark stats from pytest-benchmark's session."""
    bench_session = getattr(session.config, "_benchmarksession", None)
    if bench_session is None:
        return []
    rows = []
    for bench in getattr(bench_session, "benchmarks", []):
        try:
            stats = bench.stats
            rows.append(
                {
                    "name": bench.name,
                    "group": bench.group,
                    "mean_s": stats.mean,
                    "median_s": stats.median,
                    "min_s": stats.min,
                    "max_s": stats.max,
                    "stddev_s": stats.stddev,
                    "rounds": stats.rounds,
                }
            )
        except (AttributeError, TypeError):
            continue
    return rows


def _aggregation_errors(payload: dict) -> list[str]:
    """Why this BENCH_OBS payload would be a hollow artifact (if any)."""
    errors = []
    if _benchmark_tests_ran and not payload["benchmarks"]:
        errors.append(
            f"{_benchmark_tests_ran} benchmark test(s) executed but no "
            "pytest-benchmark stats were aggregated — pytest-benchmark is "
            "probably disabled (it turns itself off under pytest-xdist; "
            "run benchmarks/ without -n, and without --benchmark-disable)"
        )
    return errors


def pytest_sessionfinish(session, exitstatus):
    """Write the BENCH_OBS.json perf snapshot."""
    payload = {
        "schema": BENCH_OBS_SCHEMA,
        "version": __version__,
        "git_rev": git_revision(session.config.rootpath),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "exitstatus": int(exitstatus),
        "benchmarks": _benchmark_rows(session),
        "profiles": _session_telemetry.profile_summary(),
        "counters": _session_telemetry.registry.snapshot()["counters"],
    }
    errors = _aggregation_errors(payload)
    if errors:
        for error in errors:
            print(f"\nBENCH_OBS aggregation error: {error}", file=sys.stderr)
        session.exitstatus = 1
        return
    out = session.config.rootpath / "BENCH_OBS.json"
    with open(out, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"\nwrote {out} ({len(payload['profiles'])} profile records)")
