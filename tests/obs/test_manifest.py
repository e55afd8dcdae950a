"""Tests for run manifests, config hashing, and the export helper."""

import json

import pytest

from repro.errors import ConfigError
from repro.obs import Telemetry, telemetry_session
from repro.obs.manifest import (
    build_manifest,
    config_hash,
    export_run,
    git_revision,
    load_manifest,
    write_manifest,
)


class TestConfigHash:
    def test_deterministic_and_order_independent(self):
        first = config_hash({"a": 1, "b": [2, 3]})
        second = config_hash({"b": [2, 3], "a": 1})
        assert first == second
        assert len(first) == 64

    def test_sensitive_to_values(self):
        assert config_hash({"a": 1}) != config_hash({"a": 2})

    def test_non_json_values_stringified(self):
        config_hash({"path": object()})  # must not raise


class TestGitRevision:
    def test_in_a_checkout(self):
        rev = git_revision()
        # The repo under test is a checkout; outside one, None is fine.
        assert rev is None or len(rev) == 40

    def test_outside_a_checkout(self, tmp_path):
        assert git_revision(tmp_path) is None


class TestManifest:
    def test_build_and_round_trip(self, tmp_path):
        telemetry = Telemetry()
        telemetry.registry.counter("engine.single.runs").inc(3)
        telemetry.tracer.span("stage", 0, 5, kind="stage")
        with telemetry.profile("loop") as prof:
            prof.slots = 500
        manifest = build_manifest(
            telemetry, label="test", config={"seed": 7}, seed=7
        )
        assert manifest.config_hash == config_hash({"seed": 7})
        assert manifest.span_count == 1
        assert manifest.profiles[0]["slots"] == 500

        path = tmp_path / "manifest.json"
        write_manifest(path, manifest)
        loaded = load_manifest(path)
        assert loaded["seed"] == 7
        assert loaded["config_hash"] == manifest.config_hash
        assert loaded["metrics"]["counters"] == {
            "engine.single.runs": 3.0
        }

    def test_load_rejects_non_manifest(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("{}")
        with pytest.raises(ConfigError, match="not a run manifest"):
            load_manifest(path)
        path.write_text("not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_manifest(path)


class TestExportRun:
    def test_writes_both_files(self, tmp_path):
        with telemetry_session() as tele:
            tele.tracer.span("stage", 0, 10, kind="stage")
            tele.registry.counter("engine.single.slots").inc(10)
        spans_path, manifest_path = export_run(
            tmp_path / "out", tele, label="unit", config={"x": 1}, seed=0
        )
        assert spans_path.is_file() and manifest_path.is_file()
        assert len(spans_path.read_text().splitlines()) == 1
        manifest = json.loads(manifest_path.read_text())
        assert manifest["label"] == "unit"
        assert manifest["span_count"] == 1
        assert manifest["metrics"]["counters"]["engine.single.slots"] == 10.0
