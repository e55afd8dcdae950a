"""Live-observatory overhead: the vectorized hot loop, watched vs not.

Not a paper artifact — this measures what attaching the live plane
(``repro.obs.series.Sampler`` + ``repro.obs.live.TelemetryServer`` with a
concurrent scraper hitting ``GET /metrics``) costs the
:mod:`repro.sim.vector` engine hot loop, in slots/second:

* ``base`` — the run inside a plain telemetry session (the cost of
  telemetry itself is ``bench_obs.py``'s concern, so it is in both arms);
* ``live`` — the identical run with a ``LiveObservatory`` attached and a
  background thread scraping ``/metrics`` throughout.

The sampler and server only *read* the registry (snapshots serialize on
the registry's merge lock), so the target overhead is < 2% with a hard
bound of 5% — exceeded means the observational plane has started taxing
the runs it watches, and this script exits non-zero.

Results land in the ``live`` section of ``BENCH_OBS.json`` (read-merge-
write: the pytest-benchmark payload the conftest writes is preserved).
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
import urllib.request
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.core.single_session import SingleSessionOnline  # noqa: E402
from repro.obs import Telemetry, telemetry_session  # noqa: E402
from repro.obs.live import LiveObservatory  # noqa: E402
from repro.sim.vector import EngineState  # noqa: E402
from repro.version import __version__  # noqa: E402

#: Constant-rate segment length (same regime as bench_engine.py).
SEGMENT = 8000

REPS = 3

#: Overhead thresholds, as fractions of the base wall-clock.
TARGET = 0.02
BOUND = 0.05

#: Sampler tick interval while under measurement (stressier than the
#: 0.5 s default, so the bound is conservative).
SAMPLE_INTERVAL_S = 0.1

#: How often the background scraper pulls /metrics during the live arm.
SCRAPE_INTERVAL_S = 0.2


def _best_of(fn, reps: int = REPS) -> tuple[object, float]:
    """Return ``fn()``'s result and the fastest of ``reps`` timings."""
    best = float("inf")
    result = None
    for _ in range(reps):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return result, best


def _piecewise(rng: np.random.Generator, horizon: int) -> np.ndarray:
    pieces = max(1, horizon // SEGMENT)
    levels = rng.uniform(1.0, 12.0, size=pieces)
    return np.repeat(levels, SEGMENT)[:horizon]


def _policy() -> SingleSessionOnline:
    return SingleSessionOnline(
        max_bandwidth=64, offline_delay=8, offline_utilization=0.25, window=16
    )


def _scraper(url: str, stop: threading.Event) -> None:
    while not stop.wait(SCRAPE_INTERVAL_S):
        try:
            with urllib.request.urlopen(url + "/metrics", timeout=2) as resp:
                resp.read()
        except OSError:
            continue


#: Streaming bite size: the step(n_slots) granularity under measurement.
STEP_SLOTS = 4096


def _stream_run(arrivals: np.ndarray):
    """The vectorized hot loop, driven through the streaming step() API."""
    state = EngineState(_policy(), arrivals, closed=True)
    while not state.done:
        state.step(STEP_SLOTS)
    return state.finalize()


def bench_live(seed: int, scale: float) -> dict:
    horizon = max(SEGMENT, int(400_000 * scale))
    arrivals = _piecewise(np.random.default_rng(seed), horizon)

    # Observatory lifecycle (server bind, thread starts/joins) happens
    # outside the timed region: the bound is about what the *attached*
    # plane costs the hot loop, not what attach/detach costs once.
    with telemetry_session(Telemetry()):
        base_trace, base_s = _best_of(lambda: _stream_run(arrivals))

    telemetry = Telemetry()
    with telemetry_session(telemetry):
        with LiveObservatory(
            telemetry.registry, interval_s=SAMPLE_INTERVAL_S
        ) as observatory:
            stop = threading.Event()
            scraper = threading.Thread(
                target=_scraper, args=(observatory.url, stop), daemon=True
            )
            scraper.start()
            try:
                live_trace, live_s = _best_of(lambda: _stream_run(arrivals))
            finally:
                stop.set()
                scraper.join(timeout=5.0)

    identical = (
        np.array_equal(base_trace.allocation, live_trace.allocation)
        and np.array_equal(base_trace.delivered, live_trace.delivered)
        and np.array_equal(base_trace.backlog, live_trace.backlog)
        and base_trace.changes == live_trace.changes
    )
    slots = len(base_trace.allocation)
    overhead = live_s / max(base_s, 1e-9) - 1.0
    return {
        "config": {
            "seed": seed,
            "scale": scale,
            "segment": SEGMENT,
            "step_slots": STEP_SLOTS,
            "sample_interval_s": SAMPLE_INTERVAL_S,
            "scrape_interval_s": SCRAPE_INTERVAL_S,
        },
        "slots": slots,
        "base_seconds": round(base_s, 4),
        "live_seconds": round(live_s, 4),
        "base_slots_per_sec": round(slots / max(base_s, 1e-9), 1),
        "live_slots_per_sec": round(slots / max(live_s, 1e-9), 1),
        "overhead_pct": round(overhead * 100.0, 2),
        "target_pct": TARGET * 100.0,
        "bound_pct": BOUND * 100.0,
        "within_bound": overhead <= BOUND,
        "identical": identical,
    }


def merge_section(live: dict, out: Path) -> None:
    """Insert the ``live`` key, preserving the conftest-written payload."""
    try:
        report = json.loads(out.read_text())
        if not isinstance(report, dict):
            report = {}
    except (OSError, json.JSONDecodeError):
        report = {}
    report["live"] = live
    report.setdefault("version", __version__)
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--out", type=Path, default=Path("BENCH_OBS.json"))
    args = parser.parse_args(argv)

    live = bench_live(args.seed, args.scale)
    print(
        f"base {live['base_slots_per_sec']:>12,.0f} slots/s, "
        f"live {live['live_slots_per_sec']:>12,.0f} slots/s "
        f"(overhead {live['overhead_pct']:+.2f}%, "
        f"target <{live['target_pct']:.0f}%, bound <{live['bound_pct']:.0f}%)"
    )
    print(f"traces identical with observatory attached: {live['identical']}")
    merge_section(live, args.out)
    print(f"wrote live section to {args.out}")
    if not live["identical"]:
        print("FATAL: trace diverged with the observatory attached",
              file=sys.stderr)
        return 1
    if not live["within_bound"]:
        print(
            f"FATAL: live-observatory overhead {live['overhead_pct']:.2f}% "
            f"exceeds the {live['bound_pct']:.0f}% bound",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
