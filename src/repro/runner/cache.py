"""Content-addressed cache for workloads and finished experiment results.

Feasible-workload generation is the dominant cost of several experiments
(the generator verifies every candidate stream and retries on marginal
failures), yet its output is a pure function of the generating
configuration and seed.  This module caches those outputs on disk,
addressed by the sha256 of the *full* configuration — every generator
argument, the cache schema version, and the package version — so a stale
entry can never be returned: any change to the inputs or the code version
changes the key, and the old entry is simply never looked up again.

Four sections live under the cache root:

* ``workloads/`` — ``.npz`` arrays for single- and multi-session
  certified workloads (:func:`cached_feasible_stream`,
  :func:`cached_multi_feasible`).
* ``results/`` — finished :class:`~repro.experiments.common.ExperimentResult`
  dumps, stored by the batch runner.
* ``shards/`` — per-point payloads of shardable sweep experiments,
  ``repro arena`` cells included (they are ``E-ARENA`` points).
* ``adversary/`` — attack scores from ``repro attack``.

The cache is *opt-in*: it activates only when ``REPRO_CACHE_DIR`` is set
or the CLI passes ``--cache-dir``.  All writes are atomic
(temp file + ``os.replace``), so concurrent workers racing on the same
key at worst duplicate work, never corrupt an entry.  Hits and misses are
counted on the process telemetry registry under ``runner.cache.*``.

Every entry carries a sha256 digest (:func:`payload_digest` over the
canonical JSON for ``.json`` entries; a ``.sha256`` sidecar over the file
bytes for ``.npz`` arrays) that is verified on load.  "Absent" and
"corrupt" are distinct outcomes: a missing file is a silent miss, while a
file that is unreadable, unparseable, or digest-mismatched is *moved* to
a ``quarantine/`` subdirectory (preserved for forensics, never silently
overwritten) and counted under ``runner.cache.corrupt`` /
``runner.cache.quarantined``.  ``repro cache verify`` sweeps every entry
on demand.
"""

from __future__ import annotations

import hashlib
import inspect
import io
import json
import os
import shutil
import tempfile
import zipfile
from dataclasses import asdict
from pathlib import Path

import numpy as np

from repro.errors import ConfigError
from repro.obs.manifest import config_hash
from repro.obs.runtime import count as _telemetry_count
from repro.params import OfflineConstraints
from repro.traffic.feasible import FeasibleStream, generate_feasible_stream
from repro.traffic.multi import MultiSessionWorkload, generate_multi_feasible
from repro.version import __version__

#: Bump when the on-disk layout or key derivation changes.
#: Schema 2: JSON entries wrap ``{"digest", "value"}``; npz entries carry
#: a ``.sha256`` sidecar; corrupt entries move to ``quarantine/``.
CACHE_SCHEMA = 2

#: Environment variable naming the cache root (cache disabled when unset).
CACHE_ENV = "REPRO_CACHE_DIR"

_SECTIONS = ("workloads", "results", "shards", "adversary")

#: Subdirectory corrupt entries are moved to (never a lookup target).
QUARANTINE_DIR = "quarantine"


def payload_digest(payload) -> str:
    """sha256 over the canonical JSON encoding of a payload.

    The shared integrity fingerprint of the execution layer: cache
    entries, sweep-journal records, and worker return values all carry
    it, so corruption anywhere between a worker and the merged report is
    detected instead of trusted.
    """
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _parse_entry(data: str) -> dict | None:
    """Decode and digest-check one stored JSON entry (None = corrupt)."""
    try:
        doc = json.loads(data)
    except ValueError:
        return None
    if not isinstance(doc, dict):
        return None
    value = doc.get("value")
    digest = doc.get("digest")
    if not isinstance(value, dict) or not isinstance(digest, str):
        return None
    if digest != payload_digest(value):
        return None
    return value


def _sidecar(path: Path) -> Path:
    return path.parent / (path.name + ".sha256")


class ContentCache:
    """A content-addressed on-disk cache rooted at ``root``.

    Entries are write-once: the key encodes every input that influenced
    the value, so an existing file for a key is always current.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)

    # -- keying -----------------------------------------------------------

    @staticmethod
    def key(kind: str, config: dict) -> str:
        """Content address: sha256 over kind + config + versions."""
        return config_hash(
            {
                "kind": kind,
                "config": config,
                "cache_schema": CACHE_SCHEMA,
                "version": __version__,
            }
        )

    def _path(self, section: str, key: str, suffix: str) -> Path:
        if section not in _SECTIONS:
            raise ConfigError(f"unknown cache section {section!r}")
        return self.root / section / f"{key}{suffix}"

    # -- JSON entries (results, shard payloads) ---------------------------

    def load_json(self, section: str, key: str) -> dict | None:
        """Load one JSON entry; absent → None silently, corrupt → None
        after the file is quarantined and counted."""
        path = self._path(section, key, ".json")
        try:
            with open(path, encoding="utf-8") as handle:
                data = handle.read()
        except FileNotFoundError:
            return None
        except OSError:
            self._quarantine(path)
            return None
        value = _parse_entry(data)
        if value is None:
            self._quarantine(path)
            return None
        return value

    def store_json(self, section: str, key: str, value: dict) -> None:
        path = self._path(section, key, ".json")
        doc = {"digest": payload_digest(value), "value": value}
        _atomic_write(path, json.dumps(doc, sort_keys=True).encode("utf-8"))

    # -- array entries (workloads) ----------------------------------------

    def load_arrays(self, key: str) -> dict[str, np.ndarray] | None:
        """Load one npz entry; absent → None silently, corrupt (bad bytes,
        missing or mismatched sidecar digest) → None after quarantine."""
        path = self._path("workloads", key, ".npz")
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            return None
        except OSError:
            self._quarantine(path)
            return None
        if hashlib.sha256(data).hexdigest() != self._read_sidecar(path):
            self._quarantine(path)
            return None
        try:
            with np.load(io.BytesIO(data)) as bundle:
                return {name: bundle[name].copy() for name in bundle.files}
        except (OSError, ValueError, zipfile.BadZipFile):
            self._quarantine(path)
            return None

    def store_arrays(self, key: str, arrays: dict[str, np.ndarray]) -> None:
        path = self._path("workloads", key, ".npz")
        path.parent.mkdir(parents=True, exist_ok=True)
        handle, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=".tmp-", suffix=".npz"
        )
        os.close(handle)
        try:
            np.savez(tmp, **arrays)
            with open(tmp, "rb") as stream:
                digest = hashlib.sha256(stream.read()).hexdigest()
            os.replace(tmp, path)
            _atomic_write(_sidecar(path), digest.encode("utf-8"))
        except BaseException:
            _unlink_quietly(tmp)
            raise

    # -- integrity --------------------------------------------------------

    @staticmethod
    def _read_sidecar(path: Path) -> str | None:
        try:
            return _sidecar(path).read_text(encoding="utf-8").strip()
        except OSError:
            return None

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt entry (and its sidecar) into ``quarantine/``.

        The bad bytes are preserved for forensics instead of being left
        in place to be overwritten; the event is counted so corruption is
        observable (``runner.cache.corrupt`` / ``.quarantined``).
        """
        _count("corrupt")
        target_dir = self.root / QUARANTINE_DIR
        for victim in (path, _sidecar(path)):
            if not victim.exists():
                continue
            try:
                target_dir.mkdir(parents=True, exist_ok=True)
                os.replace(
                    victim, target_dir / f"{path.parent.name}__{victim.name}"
                )
                _count("quarantined")
            except OSError:
                continue

    def verify(self, quarantine: bool = True) -> dict:
        """Digest-check every entry; quarantine (by default) the corrupt.

        Returns ``{"checked", "ok", "corrupt", "quarantined": [names]}``.
        Backs ``repro cache verify``.
        """
        checked = ok = 0
        bad: list[str] = []
        for section in _SECTIONS:
            directory = self.root / section
            if not directory.is_dir():
                continue
            for path in sorted(directory.iterdir()):
                if (
                    not path.is_file()
                    or path.name.startswith(".tmp-")
                    or path.name.endswith(".sha256")
                ):
                    continue
                checked += 1
                good = False
                try:
                    if path.suffix == ".json":
                        good = (
                            _parse_entry(path.read_text(encoding="utf-8"))
                            is not None
                        )
                    elif path.suffix == ".npz":
                        digest = hashlib.sha256(path.read_bytes()).hexdigest()
                        good = digest == self._read_sidecar(path)
                except OSError:
                    good = False
                if good:
                    ok += 1
                else:
                    bad.append(f"{section}/{path.name}")
                    if quarantine:
                        self._quarantine(path)
        return {
            "root": str(self.root),
            "checked": checked,
            "ok": ok,
            "corrupt": len(bad),
            "quarantined": bad if quarantine else [],
        }

    # -- maintenance ------------------------------------------------------

    def info(self) -> dict:
        """Entry counts and byte totals per section.

        ``.sha256`` sidecars ride along with their entry (counted in
        bytes, not as entries); quarantined files get their own section.
        """
        sections = {}
        for section in _SECTIONS + (QUARANTINE_DIR,):
            directory = self.root / section
            entries = 0
            size = 0
            if directory.is_dir():
                for path in directory.iterdir():
                    if path.name.startswith(".tmp-") or not path.is_file():
                        continue
                    size += path.stat().st_size
                    if not path.name.endswith(".sha256"):
                        entries += 1
            sections[section] = {"entries": entries, "bytes": size}
        return {
            "root": str(self.root),
            "schema": CACHE_SCHEMA,
            "version": __version__,
            "sections": sections,
        }

    def clear(self) -> int:
        """Delete every cache entry; returns how many were removed.

        Sidecars are deleted with their entry but not counted; the
        quarantine directory is swept too.
        """
        removed = 0
        for section in _SECTIONS + (QUARANTINE_DIR,):
            directory = self.root / section
            if directory.is_dir():
                removed += sum(
                    1
                    for p in directory.iterdir()
                    if p.is_file() and not p.name.endswith(".sha256")
                )
                shutil.rmtree(directory)
        return removed


def _atomic_write(path: Path, data: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    handle, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
    try:
        with os.fdopen(handle, "wb") as stream:
            stream.write(data)
        os.replace(tmp, path)
    except BaseException:
        _unlink_quietly(tmp)
        raise


def _unlink_quietly(path: str) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass


# -- active-cache plumbing ------------------------------------------------

_ACTIVE: ContentCache | None = None
_CONFIGURED = False


def get_cache() -> ContentCache | None:
    """The process-wide active cache (None = caching disabled).

    Resolution order: an explicit :func:`use_cache` call wins; otherwise
    the ``REPRO_CACHE_DIR`` environment variable is consulted once.
    """
    global _ACTIVE, _CONFIGURED
    if not _CONFIGURED:
        root = os.environ.get(CACHE_ENV)
        _ACTIVE = ContentCache(root) if root else None
        _CONFIGURED = True
    return _ACTIVE


def use_cache(cache: ContentCache | str | Path | None) -> ContentCache | None:
    """Install (or disable, with None) the process-wide cache."""
    global _ACTIVE, _CONFIGURED
    if isinstance(cache, (str, Path)):
        cache = ContentCache(cache)
    _ACTIVE = cache
    _CONFIGURED = True
    return _ACTIVE


def _count(outcome: str) -> None:
    _telemetry_count(f"runner.cache.{outcome}")


# -- cached workload generators -------------------------------------------


#: The generators' signatures, taken at import: a tracer or profiler may
#: later replace the generators with ``(*args, **kwargs)`` wrappers.
_SIGNATURES = {
    "feasible_stream": inspect.signature(generate_feasible_stream),
    "multi_feasible": inspect.signature(generate_multi_feasible),
}


def _cached_arrays(section: str, generator, build, names: tuple[str, ...], args, kwargs):
    """``generator(*args, **kwargs)``, with its ``names`` arrays cached.

    The key is the generator's bound arguments with its defaults applied,
    so it covers every option the generator has, and each option is
    stated only in the generator's signature.  Only deterministic calls
    (integer ``seed``) are cacheable; a live RNG or ``None`` seed bypasses
    the cache entirely.  A hit is rebuilt by ``build(arrays, arguments)``.
    """
    bound = _SIGNATURES[section].bind(*args, **kwargs)
    bound.apply_defaults()
    arguments = bound.arguments
    cache = get_cache()
    if cache is None or not isinstance(arguments["seed"], int):
        return generator(*args, **kwargs)
    config = {
        name: asdict(value) if isinstance(value, OfflineConstraints) else value
        for name, value in arguments.items()
    }
    key = ContentCache.key(section, config)
    arrays = cache.load_arrays(key)
    if arrays is not None and set(names) <= arrays.keys():
        _count("hits")
        return build(arrays, arguments)
    _count("misses")
    result = generator(*args, **kwargs)
    cache.store_arrays(key, {name: getattr(result, name) for name in names})
    return result


def cached_feasible_stream(*args, **kwargs) -> FeasibleStream:
    """:func:`~repro.traffic.feasible.generate_feasible_stream`, cached."""
    return _cached_arrays(
        "feasible_stream",
        generate_feasible_stream,
        lambda arrays, arguments: FeasibleStream(
            arrivals=arrays["arrivals"],
            profile=arrays["profile"],
            offline=arguments["offline"],
        ),
        ("arrivals", "profile"),
        args,
        kwargs,
    )


def cached_multi_feasible(*args, **kwargs) -> MultiSessionWorkload:
    """:func:`~repro.traffic.multi.generate_multi_feasible`, cached."""
    return _cached_arrays(
        "multi_feasible",
        generate_multi_feasible,
        lambda arrays, arguments: MultiSessionWorkload(
            arrivals=arrays["arrivals"],
            profiles=arrays["profiles"],
            offline_bandwidth=float(arguments["offline_bandwidth"]),
            offline_delay=int(arguments["offline_delay"]),
        ),
        ("arrivals", "profiles"),
        args,
        kwargs,
    )
