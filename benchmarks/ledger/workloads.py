"""The ledger's four workloads: fixed sizes, seed-derived inputs, checks.

Every workload is one closed-loop caller in one process.  Inputs come
from ``numpy.random.default_rng([seed, i])``; the sizes below are the only
other inputs and are fixed (tests shrink them by monkeypatching).

``repro`` is called through module attributes (``engine.run_multi_session``,
not an imported name), so the tracer's rebinding reaches these calls too.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable

import numpy as np

from repro import cli_report, runner, verify
from repro.core.phased import PhasedMultiSession
from repro.core.single_session import SingleSessionOnline
from repro.experiments import registry
from repro.faults.plan import standard_plan
from repro.obs.runtime import telemetry_session
from repro.params import OfflineConstraints
from repro.runner import cache
from repro.sim import engine, vector
from repro.traffic import feasible, multi

ROOT = Path(__file__).resolve().parents[2]
#: Everything the benchmark writes goes here (git-ignored).
OUT = Path(__file__).resolve().parent / "out"

#: Figure 3 parameters shared by ``stream`` and ``degraded``:
#: B_A = B_O = 64, D_O = 8, U_O = 0.25, W = 16.
OFFLINE = OfflineConstraints(64.0, 8, 0.25, 16)

#: ``repro report`` at its default seed: the bytes golden.json pins.  Scale
#: 0.3 is the scale the ROADMAP's behaviour contract and BENCH_PERF.json
#: use; full scale takes about 19 s a pass on the reference host.
REPORT_SEED = 0
REPORT_SCALE = 0.3
#: Many shorter inputs rather than one long one: how much of a stream
#: bulk-commits varies from seed to seed, and the mean over more streams
#: varies less.
STREAM_COUNT = 8
STREAM_HORIZON = 50_000
STREAM_CHUNK = 1_000
#: ``(k, horizon)`` per phased run; B_O = 64, D_O = 8.
MULTI_RUNS = ((2, 75_000), (8, 50_000))
DEGRADED_COUNT = 3
DEGRADED_HORIZON = 100_000
FAULT_INTENSITY = 0.3

#: What a cold ``repro report`` imports before it computes anything.
REPORT_IMPORTS = (
    "import repro.cli_report, repro.runner\n"
    "from repro.experiments import registry\n"
    "registry.all_ids()\n"
)


@dataclass
class PassResult:
    """What one pass of a workload produced."""

    #: sha256 of the pass's output (report bytes, or the trace digests).
    digest: str
    #: Simulated slots (0 for ``report``, which does not expose them).
    slots: int = 0
    #: ``(name, ok)`` checks made inside the timed pass.
    checks: list = field(default_factory=list)
    #: Outputs kept for the post-timing checks (first pass only).
    kept: object = None
    #: Seconds per ``EngineState.step`` call (``stream`` only).
    step_s: list = field(default_factory=list)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: ``setup(seed) -> inputs``
    setup: Callable
    #: ``input_digest(inputs) -> str | None`` (None: nothing to compare)
    input_digest: Callable
    #: ``run_pass(inputs, keep) -> PassResult``
    run_pass: Callable
    #: ``verify(inputs, kept) -> (checks, extras)``, after timing
    verify: Callable
    #: ``config(seed) -> dict``: the seed and sizes in force (keys golden
    #: digests)
    config: Callable


# -- digests -----------------------------------------------------------------


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


def _combined(digests) -> str:
    return hashlib.sha256("".join(digests).encode()).hexdigest()


def _arrays_digest(*arrays) -> str:
    h = hashlib.sha256()
    for array in arrays:
        _feed(h, array)
    return h.hexdigest()


def _fig3() -> SingleSessionOnline:
    return SingleSessionOnline(OFFLINE.bandwidth, OFFLINE.delay, OFFLINE.utilization, OFFLINE.window)


def _rng(seed: int, i: int) -> np.random.Generator:
    return np.random.default_rng([seed, i])


# -- report ------------------------------------------------------------------


@dataclass
class ReportInputs:
    seed: int


def _report_setup(seed: int) -> ReportInputs:
    """The report ignores ``seed``: its workload is the seed-0 report."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    subprocess.run([sys.executable, "-c", REPORT_IMPORTS], check=True, cwd=ROOT, env=env)
    registry.all_ids()  # this process's own lazy experiment imports
    return ReportInputs(REPORT_SEED)


def _report(seed: int, cache_dir: str) -> tuple[str, list]:
    previous = cache.get_cache()
    cache.use_cache(cache_dir)
    try:
        batch = runner.run_batch(registry.all_ids(), seed=seed, scale=REPORT_SCALE, jobs=1)
        payload = cli_report.render_report(batch.results, seed=seed)
    finally:
        cache.use_cache(previous)
    checks = [(f"{result.experiment_id} checks pass", result.all_passed) for result in batch.results]
    checks.append(("every experiment reported", batch.ok))
    return hashlib.sha256(payload).hexdigest(), checks


def _report_pass(inputs: ReportInputs, keep: bool) -> PassResult:
    OUT.mkdir(exist_ok=True)
    temp = tempfile.TemporaryDirectory(dir=OUT, prefix="cache-")
    digest, checks = _report(inputs.seed, temp.name)
    if keep:
        return PassResult(digest, checks=checks, kept=(temp, digest))
    temp.cleanup()
    return PassResult(digest, checks=checks)


def _report_verify(inputs: ReportInputs, kept) -> tuple[list, dict]:
    temp, cold_digest = kept
    try:
        began = time.perf_counter()
        warm_digest, _ = _report(inputs.seed, temp.name)
        warm_s = time.perf_counter() - began
    finally:
        temp.cleanup()
    checks = [("warm-cache report equals the cold one", warm_digest == cold_digest)]
    return checks, {"runner.cache.warm_s": warm_s}


# -- stream ------------------------------------------------------------------


def _stream_setup(seed: int) -> list:
    return [
        feasible.generate_feasible_stream(OFFLINE, STREAM_HORIZON, seed=_rng(seed, i))
        for i in range(STREAM_COUNT)
    ]


def _stream_pass(streams: list, keep: bool) -> PassResult:
    digests = []
    traces = []
    steps = []
    slots = 0
    clock = time.perf_counter
    for stream in streams:
        state = vector.EngineState(_fig3(), closed=False)
        arrivals = stream.arrivals
        for start in range(0, len(arrivals), STREAM_CHUNK):
            state.feed(arrivals[start : start + STREAM_CHUNK])
            began = clock()
            state.step(STREAM_CHUNK)
            steps.append(clock() - began)
        state.close()
        state.run()
        trace = state.finalize()
        digests.append(trace_digest(trace))
        slots += trace.slots
        if keep:
            traces.append(trace)
    return PassResult(_combined(digests), slots, kept=traces if keep else None, step_s=steps)


def _stream_verify(streams: list, traces: list) -> tuple[list, dict]:
    bounds = verify.single_session_bounds(OFFLINE)
    checks = [
        (f"stream {i} trace certified", verify.certify(trace, bounds, profile=stream.profile).certified)
        for i, (stream, trace) in enumerate(zip(streams, traces))
    ]
    return checks, {}


# -- multi -------------------------------------------------------------------


def _multi_setup(seed: int) -> list:
    return [
        multi.generate_multi_feasible(
            k,
            OFFLINE.bandwidth,
            OFFLINE.delay,
            horizon,
            seed=_rng(seed, i),
            burstiness="blocks",
            concentration=0.7,
        )
        for i, (k, horizon) in enumerate(MULTI_RUNS)
    ]


def _multi_pass(workloads: list, keep: bool) -> PassResult:
    digests = []
    traces = []
    slots = 0
    for workload in workloads:
        policy = PhasedMultiSession(workload.k, OFFLINE.bandwidth, OFFLINE.delay)
        trace = engine.run_multi_session(policy, workload.arrivals)
        digests.append(trace_digest(trace))
        slots += trace.slots
        if keep:
            traces.append(trace)
    return PassResult(_combined(digests), slots, kept=traces if keep else None)


def _multi_verify(workloads: list, traces: list) -> tuple[list, dict]:
    checks = []
    for workload, trace in zip(workloads, traces):
        bounds = verify.phased_bounds(OFFLINE.bandwidth, OFFLINE.delay, workload.k)
        report = verify.certify_multi(trace, bounds, profiles=workload.profiles)
        checks.append((f"phased k={workload.k} trace certified", report.certified))
    return checks, {}


# -- degraded ----------------------------------------------------------------


@dataclass
class DegradedInputs:
    seed: int
    streams: list


def _degraded_setup(seed: int) -> DegradedInputs:
    streams = [
        feasible.generate_feasible_stream(OFFLINE, DEGRADED_HORIZON, seed=_rng(seed, i))
        for i in range(DEGRADED_COUNT)
    ]
    return DegradedInputs(seed, streams)


def _degraded_pass(inputs: DegradedInputs, keep: bool) -> PassResult:
    digests = []
    checks = []
    slots = 0
    raw = verify.raw_single_bounds(OFFLINE.bandwidth, OFFLINE.delay)
    full = verify.single_session_bounds(OFFLINE)
    for i, stream in enumerate(inputs.streams):
        plan = standard_plan(FAULT_INTENSITY, len(stream.arrivals), inputs.seed)
        faulted = engine.run_single_session(_fig3(), stream.arrivals, faults=plan)
        checks.append((f"stream {i} faulted trace certified", verify.certify(faulted, raw).certified))
        with telemetry_session():
            watched = engine.run_single_session(_fig3(), stream.arrivals)
        certified = verify.certify(watched, full, profile=stream.profile).certified
        checks.append((f"stream {i} telemetry trace certified", certified))
        digests += [trace_digest(faulted), trace_digest(watched)]
        slots += faulted.slots + watched.slots
    return PassResult(_combined(digests), slots, checks=checks)


def _no_verify(inputs, kept) -> tuple[list, dict]:
    return [], {}


def _streams_digest(streams) -> str:
    return _arrays_digest(*[a for s in streams for a in (s.arrivals, s.profile)])


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "report",
            "repro report (seed 0, scale 0.3) on a fresh cache: the north-star wall-clock, every layer works",
            _report_setup,
            lambda inputs: None,
            _report_pass,
            _report_verify,
            lambda seed: {"seed": REPORT_SEED, "scale": REPORT_SCALE},
        ),
        Workload(
            "stream",
            "Figure 3 fed 1000-slot chunks through EngineState.feed/step: bulk commits and StageKernel.scan",
            _stream_setup,
            _streams_digest,
            _stream_pass,
            _stream_verify,
            lambda seed: {
                "seed": seed, "count": STREAM_COUNT, "horizon": STREAM_HORIZON, "chunk": STREAM_CHUNK
            },
        ),
        Workload(
            "multi",
            "phased k=2 and k=8 on bursty certified traffic: short vector slices, phase-end processing",
            _multi_setup,
            lambda workloads: _arrays_digest(*[a for w in workloads for a in (w.arrivals, w.profiles)]),
            _multi_pass,
            _multi_verify,
            lambda seed: {"seed": seed, "runs": [list(run) for run in MULTI_RUNS]},
        ),
        Workload(
            "degraded",
            "Figure 3 with faults and with live telemetry: the per-slot general loop and certificate replay",
            _degraded_setup,
            lambda inputs: _streams_digest(inputs.streams),
            _degraded_pass,
            _no_verify,
            lambda seed: {
                "seed": seed, "count": DEGRADED_COUNT, "horizon": DEGRADED_HORIZON,
                "intensity": FAULT_INTENSITY,
            },
        ),
    )
}
