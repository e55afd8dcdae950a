"""Run manifests: everything needed to reproduce a run, in one JSON file.

A manifest captures the *provenance* of a telemetry capture: the seed, the
full configuration (plus its canonical hash), the git revision of the
code, the metric snapshot, and the profiling records.  Any table in
EXPERIMENTS.md regenerated under ``--telemetry`` is reproducible from its
manifest alone: check out ``git_rev``, rerun the recorded command with the
recorded ``config``, and the deterministic engine yields the same trace.

:func:`export_run` is the one-call exporter used by the CLI: it writes
``spans.jsonl`` + ``manifest.json`` into a directory that ``repro trace``
reads back.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ConfigError
from repro.obs.runtime import Telemetry
from repro.obs.tracing import export_spans_jsonl
from repro.version import __version__

#: Manifest schema version (bump on breaking layout changes).
MANIFEST_SCHEMA = 1


def config_hash(config: dict) -> str:
    """SHA-256 over the canonical JSON of ``config`` (sorted keys).

    Two runs with the same hash were configured identically, regardless of
    argument order or how the config dict was assembled.
    """
    canonical = json.dumps(config, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def git_revision(cwd: str | Path | None = None) -> str | None:
    """Best-effort ``git rev-parse HEAD`` (None outside a checkout)."""
    try:
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if result.returncode != 0:
        return None
    return result.stdout.strip() or None


@dataclass
class RunManifest:
    """Provenance + telemetry summary of one run (or batch of runs)."""

    label: str
    seed: int | None
    config: dict
    config_hash: str
    git_rev: str | None
    version: str = __version__
    created_unix: float = 0.0
    metrics: dict = field(default_factory=dict)
    profiles: list = field(default_factory=list)
    span_count: int = 0

    def as_dict(self) -> dict:
        return {
            "schema": MANIFEST_SCHEMA,
            "label": self.label,
            "version": self.version,
            "created_unix": self.created_unix,
            "seed": self.seed,
            "config": self.config,
            "config_hash": self.config_hash,
            "git_rev": self.git_rev,
            "span_count": self.span_count,
            "profiles": self.profiles,
            "metrics": self.metrics,
        }


def build_manifest(
    telemetry: Telemetry,
    *,
    label: str,
    config: dict,
    seed: int | None = None,
    cwd: str | Path | None = None,
) -> RunManifest:
    """Assemble a manifest from a telemetry capture and its run config."""
    return RunManifest(
        label=label,
        seed=seed,
        config=dict(config),
        config_hash=config_hash(config),
        git_rev=git_revision(cwd),
        created_unix=time.time(),
        metrics=telemetry.registry.snapshot(),
        profiles=telemetry.profile_summary(),
        span_count=len(telemetry.tracer.spans),
    )


def write_manifest(path: str | Path, manifest: RunManifest) -> None:
    with open(path, "w") as handle:
        json.dump(manifest.as_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_manifest(path: str | Path) -> dict:
    """Read a manifest back as a plain dict, validating the basics."""
    with open(path) as handle:
        try:
            raw = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(raw, dict) or "config_hash" not in raw:
        raise ConfigError(f"{path}: not a run manifest")
    return raw


def export_run(
    directory: str | Path,
    telemetry: Telemetry,
    *,
    label: str,
    config: dict,
    seed: int | None = None,
) -> tuple[Path, Path]:
    """Write ``spans.jsonl`` + ``manifest.json`` under ``directory``.

    Returns the two paths.  The directory is created if needed.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    spans_path = directory / "spans.jsonl"
    manifest_path = directory / "manifest.json"
    export_spans_jsonl(spans_path, telemetry.tracer.spans)
    write_manifest(
        manifest_path,
        build_manifest(telemetry, label=label, config=config, seed=seed),
    )
    return spans_path, manifest_path
