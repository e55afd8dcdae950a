"""Checks of the ledger harness itself.

    python -m pytest benchmarks/ledger -q

``pytest.ini`` in this directory puts it and ``src`` on the import path and
keeps ``benchmarks/conftest.py`` (which turns telemetry on for the whole
session) out of these tests.
"""

from __future__ import annotations

import json
import re
import statistics
import time
from pathlib import Path

import pytest

import hostspeed
import run
import tracing
import workloads
from repro.core.phased import PhasedMultiSession
from repro.core.single_session import SingleSessionOnline
from repro.sim import vector
from repro.sim.recorder import SingleSessionRecorder

BENCHMARK_PATH = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
BENCHMARK = json.loads(BENCHMARK_PATH.read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")


@pytest.fixture
def small(monkeypatch):
    """Every workload at a size that runs in seconds."""
    monkeypatch.setattr(workloads, "REPORT_SCALE", 0.02)
    monkeypatch.setattr(workloads, "STREAM_COUNT", 1)
    monkeypatch.setattr(workloads, "STREAM_HORIZON", 6_000)
    monkeypatch.setattr(workloads, "STREAM_CHUNK", 500)
    monkeypatch.setattr(workloads, "MULTI_RUNS", ((2, 3_000),))
    monkeypatch.setattr(workloads, "DEGRADED_COUNT", 1)
    monkeypatch.setattr(workloads, "DEGRADED_HORIZON", 4_000)
    monkeypatch.setattr(run, "SETUP_REPS", 2)


def _busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


# -- BENCHMARK.json ------------------------------------------------------------


def test_benchmark_json_equals_the_metric_tables():
    assert BENCHMARK["command"] == ["python3", "benchmarks/ledger/run.py"]
    assert BENCHMARK["paths"] == ["benchmarks/ledger"]
    assert BENCHMARK["run_seconds"] == run.RUN_SECONDS
    assert BENCHMARK["workloads"] == [
        {"name": w.name, "why": w.why} for w in workloads.WORKLOADS.values()
    ]
    assert BENCHMARK["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in run.END_TO_END
    ]
    assert BENCHMARK["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in run.PER_LAYER
    ]


def test_benchmark_json_respects_the_format_caps():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert len(BENCHMARK_PATH.read_bytes()) <= 64 * 1024
    assert 1 <= len(BENCHMARK["command"]) <= 32
    assert all(len(part) <= 200 for part in BENCHMARK["command"])
    assert 1 <= len(BENCHMARK["paths"]) <= 16
    for path in BENCHMARK["paths"]:
        assert PATH.fullmatch(path) and not path.startswith("/") and ".." not in path
    assert isinstance(BENCHMARK["run_seconds"], int) and 1 <= BENCHMARK["run_seconds"] <= 60
    assert 2 <= len(BENCHMARK["workloads"]) <= 8
    assert 1 <= len(BENCHMARK["end_to_end"]) <= 16
    assert 1 <= len(BENCHMARK["per_layer"]) <= 128
    names = [w["name"] for w in BENCHMARK["workloads"]]
    names += [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names), [n for n in names if not NAME.fullmatch(n)]
    for workload in BENCHMARK["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in BENCHMARK["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert UNIT.fullmatch(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    for metric in BENCHMARK["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


# -- the tracer ----------------------------------------------------------------


def _nested_run(every: int, monkeypatch) -> dict[str, float]:
    """A span calling a per-slot call that calls another, with known work."""
    monkeypatch.setattr(tracing, "SAMPLE_EVERY", every)
    tracer = tracing.Tracer()
    inner = tracer._slot(lambda: _busy(40e-6), "core.stagekernel", "inner")

    def middle_fn(i):
        _busy(20e-6)
        if i % 3:
            inner()

    middle = tracer._slot(middle_fn, "core", "middle")

    def outer_fn():
        _busy(0.01)
        for i in range(600):
            middle(i)

    outer = tracer._span(outer_fn, "sim.vector", "outer", None)
    with tracer.region():
        _busy(0.005)
        outer()
    assert tracer.attribution_error() < 1e-9
    self_s = tracer.self_seconds()
    assert sum(self_s.values()) == pytest.approx(tracer.region_ns / 1e9, rel=0.01)
    assert tracer.calls()["core"] == 600 and tracer.calls()["core.stagekernel"] == 400
    return self_s


def test_self_times_of_nested_calls_sum_to_the_region_wall(monkeypatch):
    self_s = _nested_run(1, monkeypatch)
    assert self_s["core.stagekernel"] == pytest.approx(400 * 40e-6, rel=0.15)
    assert self_s["core"] == pytest.approx(600 * 20e-6, rel=0.15)
    assert self_s["other"] == pytest.approx(0.005, rel=0.15)


def test_sampled_per_slot_times_match_full_timing(monkeypatch):
    full = _nested_run(1, monkeypatch)
    sampled = _nested_run(tracing.SAMPLE_EVERY, monkeypatch)
    for layer in ("core", "core.stagekernel", "sim.vector"):
        assert sampled[layer] == pytest.approx(full[layer], rel=0.15), layer


def test_wrappers_keep_the_policies_vector_capable():
    original = SingleSessionOnline.decide
    with tracing.Tracer().traced():
        assert SingleSessionOnline.decide is not original
        assert vector.vector_capable(SingleSessionOnline(64.0, 8, 0.25, 16))
        assert vector.multi_vector_capable(PhasedMultiSession(2, 64.0, 8))
    assert SingleSessionOnline.decide is original


def test_a_missing_target_is_skipped(monkeypatch):
    gone = ("verify", "repro.verify.certificates", "certify_everything", tracing.SPAN)
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (gone,))
    tracer = tracing.Tracer()
    with tracer.traced():
        pass
    assert "repro.verify.certificates:certify_everything" in tracer.skipped


def test_traced_stream_pass_is_bit_identical_with_the_same_bulk_slots(small, monkeypatch):
    inputs = workloads.WORKLOADS["stream"].setup(0)
    bulk = [0]
    original = SingleSessionRecorder.record_keepup_block

    def counting(recorder, arrivals, *args):
        bulk[0] += len(arrivals)
        return original(recorder, arrivals, *args)

    with monkeypatch.context() as patch:
        patch.setattr(SingleSessionRecorder, "record_keepup_block", counting)
        untraced = workloads.WORKLOADS["stream"].run_pass(inputs, False)
    tracer = tracing.Tracer()
    with tracer.traced(), tracer.region():
        traced = workloads.WORKLOADS["stream"].run_pass(inputs, False)
    assert bulk[0] > 0
    assert traced.digest == untraced.digest
    assert tracer.keepup[0] == bulk[0]


# -- whole runs ----------------------------------------------------------------


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_each_workload_emits_every_declared_metric(small, name, trace):
    record = run.measure(name, 0, 0.01, trace)
    declared = run.PER_LAYER if trace else run.END_TO_END
    assert set(record["metrics"]) == {m.name for m in declared}
    assert record["attempted"] >= 1
    if name != "report":  # at scale 0.02 some experiment checks fail
        assert record["failed"] == 0, record["failures"]
    if trace:
        assert record["metrics"]["trace.unattributed_frac"] <= 0.10


def test_a_probe_ticks_inside_the_code_it_wraps():
    with hostspeed.Probe() as probe:
        _busy(0.2)
    assert len(probe.tick_ns) >= 5
    assert probe.factor() == pytest.approx(
        statistics.fmean(probe.tick_ns) / hostspeed.REFERENCE_TICK_NS
    )
    assert hostspeed.Probe().factor() is None


def test_end_to_end_times_are_scaled_to_the_reference_host(small, monkeypatch):
    monkeypatch.setattr(hostspeed.Probe, "factor", lambda self: 2.0)
    record = run.measure("stream", 0, 0.01, False)
    assert record["extra"]["host_factor"] == pytest.approx(2.0)
    assert record["metrics"]["wall_s"] == pytest.approx(statistics.median(record["pass_wall_s"]) / 2)
    assert record["metrics"]["setup_s"] == pytest.approx(statistics.median(record["setup_rep_s"]) / 2)


def test_the_last_line_is_the_result_object(small, capsys):
    assert run.main(["--workload", "degraded", "--seed", "1", "--seconds", "0", "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == {
        m.name: m.unit for m in run.END_TO_END
    }


def test_a_wrong_output_counts_as_failed_without_changing_the_exit_code(small, monkeypatch, capsys):
    monkeypatch.setattr(run, "_golden", lambda *args: "0" * 64)
    assert run.main(["--workload", "stream", "--seed", "0", "--seconds", "0", "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] == 1


def test_the_full_scale_report_matches_its_pinned_digest(monkeypatch, tmp_path):
    pinned = json.loads(run.GOLDEN.read_text())["report_full_scale"]
    monkeypatch.setattr(workloads, "REPORT_SCALE", pinned["config"]["scale"])
    digest, checks = workloads._report(pinned["config"]["seed"], str(tmp_path))
    assert all(ok for _, ok in checks)
    assert digest == pinned["sha256"]


def test_a_broken_attribution_exits_nonzero_without_a_result(small, monkeypatch, capsys):
    monkeypatch.setattr(tracing.Tracer, "attribution_error", lambda self: 0.5)
    assert run.main(["--workload", "multi", "--seed", "0", "--seconds", "0", "--trace", "1"]) == 2
    assert not capsys.readouterr().out.strip()
