"""Tests for the ``trace`` CLI subcommand and the ``--telemetry`` flags."""

import json

import pytest

from repro.cli import main
from repro.errors import ConfigError


def _export(tmp_path, extra=()):
    out = tmp_path / "telemetry"
    assert (
        main(
            [
                "simulate",
                "--horizon",
                "500",
                "--traffic",
                "onoff",
                "--telemetry",
                str(out),
                *extra,
            ]
        )
        == 0
    )
    return out


class TestSimulateTelemetryFlag:
    def test_writes_spans_and_manifest(self, tmp_path, capsys):
        out = _export(tmp_path)
        assert (out / "spans.jsonl").is_file()
        assert (out / "manifest.json").is_file()
        assert "telemetry written to" in capsys.readouterr().out
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["label"] == "simulate"
        assert manifest["seed"] == 0
        assert manifest["config"]["horizon"] == 500
        assert manifest["metrics"]["counters"]["engine.single.runs"] == 1.0
        assert manifest["profiles"][0]["slots_per_sec"] > 0

    def test_no_flag_no_files(self, tmp_path, capsys):
        assert main(["simulate", "--horizon", "300"]) == 0
        assert "telemetry" not in capsys.readouterr().out

    def test_faulted_run_exports_signaling_spans(self, tmp_path):
        out = _export(tmp_path, extra=["--fault-intensity", "0.4"])
        lines = (out / "spans.jsonl").read_text().splitlines()
        kinds = {json.loads(line)["kind"] for line in lines}
        assert "signaling" in kinds


class TestRunTelemetryFlag:
    def test_run_exports_batch_manifest(self, tmp_path, capsys):
        out = tmp_path / "telemetry"
        assert (
            main(["run", "E-T6", "--scale", "0.1", "--telemetry", str(out)])
            == 0
        )
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["label"] == "run:E-T6"
        assert manifest["config"] == {"ids": ["E-T6"], "seed": 0, "scale": 0.1}
        assert manifest["metrics"]["counters"]["engine.single.runs"] >= 1.0


class TestTraceSubcommand:
    def test_summarizes_directory(self, tmp_path, capsys):
        out = _export(tmp_path)
        capsys.readouterr()
        assert main(["trace", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "trace:" in printed
        assert "stage" in printed
        assert "manifest: label=simulate" in printed
        assert "slots/sec" in printed

    def test_accepts_spans_file_and_prints_raw_spans(self, tmp_path, capsys):
        out = _export(tmp_path)
        capsys.readouterr()
        assert main(["trace", str(out / "spans.jsonl"), "--spans", "3"]) == 0
        assert "run_single_session" in capsys.readouterr().out

    def test_kind_filter(self, tmp_path, capsys):
        out = _export(tmp_path)
        capsys.readouterr()
        assert main(["trace", str(out), "--kind", "stage"]) == 0
        printed = capsys.readouterr().out
        assert "stage" in printed
        # The span summary table must only contain stage rows (the
        # manifest's profile lines still mention the run loop by name).
        assert not any(
            line.startswith("run ") for line in printed.splitlines()
        )

    def test_unmatched_filter_fails(self, tmp_path, capsys):
        out = _export(tmp_path)
        capsys.readouterr()
        assert main(["trace", str(out), "--kind", "nonexistent"]) == 1
        assert "no spans" in capsys.readouterr().out

    def test_missing_path_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="no span file"):
            main(["trace", str(tmp_path / "absent")])

    def test_perfetto_export_from_real_run(self, tmp_path, capsys):
        out = _export(tmp_path)
        capsys.readouterr()
        trace_file = tmp_path / "trace.json"
        assert main(["trace", str(out), "--perfetto", str(trace_file)]) == 0
        assert "perfetto trace written to" in capsys.readouterr().out
        document = json.loads(trace_file.read_text())
        events = document["traceEvents"]
        assert events, "a real run must produce events"
        phases = {event["ph"] for event in events}
        assert phases <= {"X", "i", "M"}
        for event in events:
            assert isinstance(event["name"], str)
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
            if event["ph"] == "X":
                assert event["ts"] >= 0 and event["dur"] >= 0
        assert document["displayTimeUnit"] == "ms"

    def test_flame_export_from_real_run(self, tmp_path, capsys):
        out = _export(tmp_path)
        capsys.readouterr()
        flame_file = tmp_path / "stacks.txt"
        assert main(["trace", str(out), "--flame", str(flame_file)]) == 0
        assert "flamegraph stacks written to" in capsys.readouterr().out
        lines = flame_file.read_text().splitlines()
        assert lines
        # The engine nests stages under the run-loop span.
        assert any(
            line.startswith("run_single_session;stage ") for line in lines
        )
        for line in lines:
            stack, weight = line.rsplit(" ", 1)
            assert int(weight) > 0

    def test_exports_respect_kind_filter(self, tmp_path, capsys):
        out = _export(tmp_path)
        capsys.readouterr()
        trace_file = tmp_path / "stages.json"
        assert (
            main(
                [
                    "trace", str(out),
                    "--kind", "stage",
                    "--perfetto", str(trace_file),
                ]
            )
            == 0
        )
        events = json.loads(trace_file.read_text())["traceEvents"]
        assert all(
            event["cat"] == "stage"
            for event in events
            if event["ph"] in ("X", "i")
        )

