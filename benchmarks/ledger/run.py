"""Layer ledger: end-to-end and per-layer performance of ``repro``.

One run, of one workload::

    python3 benchmarks/ledger/run.py --workload stream --seed 3 --seconds 15 --trace 0

set up the workload's inputs, runs one untimed warm-up pass, then whole
passes for about ``--seconds`` seconds, checks the outputs, prints
``workload metric value unit`` lines and, last, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics of :data:`END_TO_END`, with times scaled to the
reference host speed of ``hostspeed.py``; ``--trace 1`` installs the layer
wrappers of ``tracing.py`` and reports :data:`PER_LAYER` instead.

The ledger (every workload, untraced then traced, each in a fresh
subprocess, one at a time)::

    python3 benchmarks/ledger/run.py --seed 0 [--workload NAME ...] [--out FILE]

adds what needs both runs: ``trace.overhead_frac`` and the check that
traced outputs are bit-identical to untraced ones.

Correctness failures (failed checks, uncertified traces, digests that
miss ``golden.json``) are counted in ``failed``; the exit code is non-zero
only when the harness itself is broken: self times that do not add up to
the traced wall time, traced outputs that differ from untraced ones, or a
declared metric that is missing.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import hostspeed  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402
from workloads import OUT, WORKLOADS  # noqa: E402

#: Seconds of passes per run (BENCHMARK.json ``run_seconds``).
RUN_SECONDS = 15
#: Set-up repetitions per untraced run; ``setup_s`` is their median.
SETUP_REPS = 3
#: Largest allowed ``|Σ self + other − wall| / wall`` in a traced run.
ATTRIBUTION_TOLERANCE = 0.01
GOLDEN = HERE / "golden.json"

#: ``registry.all_ids()`` today, spelled out because BENCHMARK.json lists
#: one metric per experiment; an id that disappears reports 0.
EXPERIMENT_IDS = (
    "E-ABL-FIFO", "E-ABL-GLOBAL", "E-ABL-HEADROOM", "E-ABL-QUANT", "E-ABL-WINDOW",
    "E-ADV", "E-ARENA", "E-BUF", "E-C", "E-F1", "E-F2", "E-FAULT", "E-INV", "E-LB",
    "E-PRICE", "E-ROB", "E-T14", "E-T17", "E-T6", "E-T7", "E-VER",
)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None


#: Gated metrics, measured with tracing off; ``bound`` is the share of the
#: parent's median by which a change may worsen the metric.
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("wall_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
)


def _per_layer() -> tuple[Metric, ...]:
    metrics = []
    for layer in LAYERS:
        metrics.append(Metric(f"{layer}.self_s", "s", "lower"))
        metrics.append(Metric(f"{layer}.calls", "count", "lower"))
    metrics += [
        Metric("other.self_s", "s", "lower"),
        Metric("trace.wall_s", "s", "lower"),
        Metric("trace.unattributed_frac", "ratio", "lower"),
        Metric("sim.vector.bulk_slots", "slots", "higher"),
        Metric("sim.vector.bulk_frac", "ratio", "higher"),
        Metric("sim.vector.mean_slice", "slots", "higher"),
        Metric("sim.vector.step_p99_ms", "ms", "lower"),
        Metric("sim.engine.general_slots", "slots", "lower"),
        Metric("runner.cache.hits", "count", "higher"),
        Metric("runner.cache.misses", "count", "lower"),
        Metric("runner.cache.warm_s", "s", "lower"),
        Metric("setup.traffic.self_s", "s", "lower"),
        Metric("setup.analysis.feasibility.self_s", "s", "lower"),
        Metric("setup.other.self_s", "s", "lower"),
    ]
    metrics += [Metric(f"experiments.{eid}.wall_s", "s", "lower") for eid in EXPERIMENT_IDS]
    return tuple(metrics)


#: Ungated metrics of single layers, from the traced run; times and
#: counts are per pass.
PER_LAYER = _per_layer()


#: Units of the ungated values an untraced run also records, and of the
#: one the ledger derives from both runs.
EXTRA_UNITS = {
    "fail_frac": "ratio",
    "host_factor": "ratio",
    "raw_setup_s": "s",
    "raw_wall_s": "s",
    "slots_per_s": "slots/s",
    "step_p50_ms": "ms",
    "step_p99_ms": "ms",
    "steps": "count",
    "trace.overhead_frac": "ratio",
}


class HarnessError(Exception):
    """The benchmark itself is broken (not the program under test)."""


def _quantile(values, q: float) -> float:
    """Nearest-rank quantile (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _golden(workload: str, config: dict) -> str | None:
    """The pinned digest for these inputs, if golden.json has one."""
    entry = json.loads(GOLDEN.read_text())["workloads"].get(workload)
    if entry is None or entry["config"] != config:
        return None
    return entry["sha256"]


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run of one workload; returns the full record."""
    workload = WORKLOADS[name]
    config = workload.config(seed)
    checks: list[tuple[str, bool]] = []
    setup_tracer = Tracer() if trace else None
    setup_s: list[float] = []
    setup_probes: list[hostspeed.Probe] = []
    if trace:
        with setup_tracer.traced(), setup_tracer.region():
            inputs = workload.setup(seed)
    else:
        inputs = None
        first_digest = None
        for _ in range(SETUP_REPS):
            with hostspeed.Probe() as probe:
                began = time.perf_counter()
                candidate = workload.setup(seed)
                setup_s.append(time.perf_counter() - began)
            setup_probes.append(probe)
            digest = workload.input_digest(candidate)
            if inputs is None:
                inputs, first_digest = candidate, digest
            elif digest is not None:
                checks.append(("set-up inputs repeat exactly", digest == first_digest))

    # The first pass runs on a cold heap and pays page faults and first
    # calls that later passes do not; it is not timed.
    workload.run_pass(inputs, False)
    tracer = Tracer() if trace else None
    walls: list[float] = []
    pass_probes: list[hostspeed.Probe] = []
    results = []
    steps: list[float] = []
    if tracer is not None:
        tracer.install()
    try:
        started = time.perf_counter()
        while True:
            keep = not results
            with hostspeed.Probe() as probe:
                began = time.perf_counter()
                if tracer is not None:
                    with tracer.region():
                        result = workload.run_pass(inputs, keep)
                else:
                    result = workload.run_pass(inputs, keep)
                walls.append(time.perf_counter() - began)
            pass_probes.append(probe)
            results.append(result)
            steps.extend(result.step_s)
            if time.perf_counter() - started + statistics.median(walls) > seconds:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()

    first = results[0]
    for result in results:
        checks.extend(result.checks)
    for index, result in enumerate(results[1:], start=1):
        checks.append((f"pass {index} output equals pass 0", result.digest == first.digest))
    golden = _golden(name, config)
    if golden is not None:
        checks.append(("output matches golden.json", first.digest == golden))
    post_checks, extras = workload.verify(inputs, first.kept)
    checks.extend(post_checks)

    passes = len(walls)
    failures = [label for label, ok in checks if not ok]
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "config": config,
        "digest": first.digest,
        "passes": passes,
        "pass_wall_s": walls,
        "setup_rep_s": setup_s,
        "pass_host_factor": [probe.factor() for probe in pass_probes],
        "scaled_wall_s": statistics.median(hostspeed.scaled(walls, pass_probes)),
        "correct": not failures,
        "attempted": len(checks),
        "failed": len(failures),
        "failures": failures,
    }
    if trace:
        record["metrics"] = _layer_metrics(setup_tracer, tracer, passes, steps, extras)
        record["skipped_targets"] = tracer.skipped
        OUT.mkdir(exist_ok=True)
        tracer.write_chrome_trace(OUT / f"trace-{name}-seed{seed}.json")
    else:
        wall = statistics.median(walls)
        record["metrics"] = {
            "setup_s": statistics.median(hostspeed.scaled(setup_s, setup_probes)),
            "wall_s": record["scaled_wall_s"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        extra = {
            "fail_frac": len(failures) / len(checks) if checks else 0.0,
            "host_factor": wall / record["metrics"]["wall_s"],
            "raw_setup_s": statistics.median(setup_s),
            "raw_wall_s": wall,
        }
        if first.slots:
            extra["slots_per_s"] = first.slots / record["metrics"]["wall_s"]
        if steps:
            extra["step_p50_ms"] = statistics.median(steps) * 1e3
            extra["step_p99_ms"] = _quantile(steps, 0.99) * 1e3
            extra["steps"] = len(steps)
        record["extra"] = extra
    declared = {m.name for m in (PER_LAYER if trace else END_TO_END)}
    if set(record["metrics"]) != declared:
        missing = sorted(declared - set(record["metrics"]))
        raise HarnessError(f"metrics missing from the {name} run: {missing}")
    return record


def _layer_metrics(setup_tracer: Tracer, tracer: Tracer, passes: int, steps, extras) -> dict:
    for label, t in (("set-up", setup_tracer), ("passes", tracer)):
        error = t.attribution_error()
        if error > ATTRIBUTION_TOLERANCE:
            raise HarnessError(
                f"{label}: self times plus other miss the traced wall time by {error:.2%}"
            )
    self_s = tracer.self_seconds()
    calls = tracer.calls()
    totals = tracer.span_totals()
    wall_s = tracer.region_ns / 1e9
    bulk_slots, bulk_blocks = tracer.keepup
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_s[layer] / passes
        metrics[f"{layer}.calls"] = calls[layer] / passes
    setup_self = setup_tracer.self_seconds()
    metrics.update(
        {
            "other.self_s": self_s["other"] / passes,
            "trace.wall_s": wall_s / passes,
            "trace.unattributed_frac": self_s["other"] / wall_s if wall_s else 0.0,
            "sim.vector.bulk_slots": bulk_slots / passes,
            "sim.vector.bulk_frac": (
                bulk_slots / totals["recorded_slots"] if totals["recorded_slots"] else 0.0
            ),
            "sim.vector.mean_slice": bulk_slots / bulk_blocks if bulk_blocks else 0.0,
            "sim.vector.step_p99_ms": _quantile(steps, 0.99) * 1e3,
            "sim.engine.general_slots": totals["general_slots"] / passes,
            "runner.cache.hits": totals["cache_hits"] / passes,
            "runner.cache.misses": totals["cache_misses"] / passes,
            "runner.cache.warm_s": extras.get("runner.cache.warm_s", 0.0),
            "setup.traffic.self_s": setup_self["traffic"],
            "setup.analysis.feasibility.self_s": setup_self["analysis.feasibility"],
            "setup.other.self_s": setup_self["other"],
        }
    )
    seconds = tracer.experiment_seconds()
    for eid in EXPERIMENT_IDS:
        metrics[f"experiments.{eid}.wall_s"] = seconds.get(eid, 0.0) / passes
    return metrics


def _units(trace: bool) -> dict[str, str]:
    return {m.name: m.unit for m in (PER_LAYER if trace else END_TO_END)}


def _print_lines(workload: str, values: dict, units: dict) -> None:
    for metric, value in values.items():
        print(f"{workload} {metric} {value!r} {units.get(metric, '')}".rstrip())


def run_one(args) -> int:
    if len(args.workload or ()) != 1:
        raise SystemExit("--trace needs exactly one --workload")
    name = args.workload[0]
    try:
        record = measure(name, args.seed, args.seconds, bool(args.trace))
    except HarnessError as exc:
        print(f"harness error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    units = _units(bool(args.trace))
    _print_lines(name, record["metrics"], units)
    _print_lines(name, record.get("extra", {}), EXTRA_UNITS)
    for failure in record["failures"]:
        print(f"{name} FAILED {failure}", file=sys.stderr)
    result = {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            metric: {"value": value, "unit": units[metric]}
            for metric, value in record["metrics"].items()
        },
    }
    print(json.dumps(result))
    return 0


def spawn(name: str, seed: int, seconds: float, trace: int) -> dict:
    """One run in a fresh process; returns its record."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"run-{name}-seed{seed}-trace{trace}.json"
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--out", str(path),
    ]
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.DEVNULL)
    if proc.returncode != 0:
        raise HarnessError(f"{name}: trace={trace} run exited {proc.returncode}")
    return json.loads(path.read_text())


def ledger(seed: int, names: list[str], seconds: float, out: Path) -> int:
    """Untraced then traced run of each workload, each in a fresh process."""
    summary = {"seed": seed, "seconds": seconds, "workloads": {}}
    status = 0
    for name in names:
        try:
            untraced = spawn(name, seed, seconds, 0)
            traced = spawn(name, seed, seconds, 1)
        except HarnessError as exc:
            print(exc, file=sys.stderr)
            return 2
        if traced["digest"] != untraced["digest"]:
            print(f"{name}: traced output differs from untraced output", file=sys.stderr)
            status = 2
        extra = dict(untraced["extra"])
        extra["trace.overhead_frac"] = (
            traced["scaled_wall_s"] / untraced["scaled_wall_s"] - 1.0
        )
        _print_lines(name, untraced["metrics"], _units(False))
        _print_lines(name, extra, EXTRA_UNITS)
        _print_lines(name, traced["metrics"], _units(True))
        summary["workloads"][name] = {
            "digest": untraced["digest"],
            "attempted": untraced["attempted"] + traced["attempted"],
            "failed": untraced["failed"] + traced["failed"],
            "failures": untraced["failures"] + traced["failures"],
            "end_to_end": untraced["metrics"],
            "extra": extra,
            "per_layer": traced["metrics"],
            "untraced_passes": untraced["passes"],
            "traced_passes": traced["passes"],
            "skipped_targets": traced["skipped_targets"],
        }
    out.write_text(json.dumps(summary, indent=2) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--out", type=str, default=None)
    args = parser.parse_args(argv)
    if args.trace is not None:
        return run_one(args)
    names = args.workload or list(WORKLOADS)
    out = Path(args.out) if args.out else OUT / f"ledger-seed{args.seed}.json"
    return ledger(args.seed, names, args.seconds, out)


if __name__ == "__main__":
    sys.exit(main())
