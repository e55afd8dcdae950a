"""Fault tolerance for the batch runner: retries, timeouts, checkpoints.

:func:`~repro.runner.batch.run_batch` fans shards across worker processes,
and every one of those processes can die, hang, raise, or return a
corrupted payload.  This module is the layer that survives all four:

* :class:`RunPolicy` — per-shard retry budget with exponential backoff
  (the same backoff shape as :class:`repro.faults.signaling.RetryPolicy`,
  in seconds instead of slots), an optional wall-clock deadline per run,
  and a ``strict`` switch between fail-fast and keep-going semantics.
* :func:`run_resilient` — the one executor loop for batch and
  tournament jobs, at every ``--jobs``.  A crashed worker
  (``BrokenProcessPool``) rebuilds the pool and re-submits only the lost
  shards; a run that exceeds its deadline kills the pool (a hung worker
  cannot be cancelled) and charges only the overdue shard, re-submitting
  in-flight victims for free; a shard that exhausts its budget is
  quarantined into a structured :class:`FailedShard` instead of aborting
  the batch (unless ``strict``).  Every worker return is digest-checked
  (:func:`~repro.runner.cache.payload_digest`), so a tampered or
  truncated payload is a retryable failure, never a silent wrong answer.
  With ``max_workers == 1`` the same loop runs each job in the caller's
  process, one at a time, with no pool.
* :class:`SweepJournal` — an append-only JSONL checkpoint of completed
  shard keys, payload digests, and payloads.  Each record is flushed and
  fsynced when written, so an interrupted sweep resumes from its last
  completed shard (``repro report --resume JOURNAL``); entries whose
  digest does not match are dropped on load, never trusted.
* :class:`ChaosPlan` — a seeded, deterministic failure injector in the
  spirit of :class:`repro.faults.plan.FaultPlan`, but aimed at the
  execution layer: workers randomly ``os._exit``, sleep past the
  deadline, raise, or tamper with their payload.  ``tests/runner/
  test_chaos.py`` uses it to prove a chaotic batch merges byte-identical
  to a fault-free run once retries succeed.

Recovery events are counted on the process telemetry registry under
``runner.resilience.*`` and surfaced live through the progress tracker,
so ``repro metrics`` and the TTY progress line show degradation as it
happens.  Determinism is preserved throughout: retries re-run pure
functions of ``(experiment, point, seed, scale)``, results are keyed and
merged by shard identity (never by completion order or attempt count),
so the merged output of a chaotic run is byte-identical to a clean one.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import sys
import threading
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    CancelledError,
    Future,
    ProcessPoolExecutor,
    wait,
)
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ConfigError, ResilienceError
from repro.obs.progress import snapshot_slots
from repro.obs.runtime import count as obs_count
from repro.runner.cache import _atomic_write, payload_digest
from repro.version import __version__

#: Journal file format version (first line of every journal).
JOURNAL_SCHEMA = 1


# -- policy ----------------------------------------------------------------


@dataclass(frozen=True)
class RunPolicy:
    """How the batch runner survives failing, hanging, or lying workers.

    Args:
        max_attempts: total tries per shard (1 = never retry).
        run_timeout: wall-clock seconds one run may take before the pool
            is killed and the shard retried (None = no deadline).  Only
            enforceable in pool mode (``jobs > 1``): an in-process run
            cannot be interrupted from within its own process.
        base_backoff_s: seconds before the first retry.
        backoff_factor: multiplier per further retry (exponential).
        max_backoff_s: cap on the backoff in seconds.
        strict: ``True`` aborts the whole batch (``ResilienceError``) the
            moment a shard exhausts its budget; ``False`` (default)
            quarantines it into a :class:`FailedShard` and keeps going,
            returning partial results.
    """

    max_attempts: int = 3
    run_timeout: float | None = None
    base_backoff_s: float = 0.05
    backoff_factor: float = 2.0
    max_backoff_s: float = 2.0
    strict: bool = False

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigError(
                f"max_attempts must be >= 1, got {self.max_attempts!r}"
            )
        if self.run_timeout is not None and self.run_timeout <= 0:
            raise ConfigError(
                f"run_timeout must be > 0 seconds, got {self.run_timeout!r}"
            )
        if self.base_backoff_s < 0:
            raise ConfigError(
                f"base_backoff_s must be >= 0, got {self.base_backoff_s!r}"
            )
        if self.backoff_factor < 1.0:
            raise ConfigError(
                f"backoff_factor must be >= 1, got {self.backoff_factor!r}"
            )
        if self.max_backoff_s < 0:
            raise ConfigError(
                f"max_backoff_s must be >= 0, got {self.max_backoff_s!r}"
            )

    def backoff(self, attempt: int) -> float:
        """Seconds to wait before retry number ``attempt`` (1-based)."""
        base = self.base_backoff_s * self.backoff_factor ** (attempt - 1)
        return min(self.max_backoff_s, base)


#: The default batch policy: 2 retries, no deadline, keep-going.
DEFAULT_POLICY = RunPolicy()

#: Fail-fast with no retries — the pre-resilience batch semantics.
FAIL_FAST = RunPolicy(max_attempts=1, strict=True)


# -- structured failure reports --------------------------------------------


@dataclass(frozen=True)
class FailedShard:
    """One shard that exhausted its retry budget and was quarantined."""

    experiment_id: str
    kind: str              # "run" (whole experiment) | "point" (sweep shard)
    label: str             # progress label, e.g. "E-T6[3]"
    index: int
    point: object
    seed: int
    scale: float
    error: str             # "ExceptionType: message" of the final attempt
    attempts: int

    def as_dict(self) -> dict:
        try:
            point = json.loads(json.dumps(self.point))
        except (TypeError, ValueError):
            point = repr(self.point)
        return {
            "experiment_id": self.experiment_id,
            "kind": self.kind,
            "label": self.label,
            "index": self.index,
            "point": point,
            "seed": self.seed,
            "scale": self.scale,
            "error": self.error,
            "attempts": self.attempts,
        }


@dataclass
class ResilienceStats:
    """Recovery-event counts from one :func:`run_resilient` call."""

    retries: int = 0
    timeouts: int = 0
    crashes: int = 0
    corrupt_payloads: int = 0
    pool_rebuilds: int = 0


class PayloadCorruption(RuntimeError):
    """A worker's returned payload does not match its sha256 digest."""


# -- the sweep journal ------------------------------------------------------


class SweepJournal:
    """Append-only JSONL checkpoint of completed batch shards.

    One line per completed shard: ``{"key", "digest", "payload"}``, where
    ``key`` is the shard's content address (it encodes experiment id,
    point, index, seed, scale, schema, and package version — so stale
    entries from a different configuration simply never match) and
    ``digest`` is :func:`~repro.runner.cache.payload_digest` over the
    payload.  Records are flushed and fsynced as written; the file is
    created atomically with a header line via the cache's
    ``_atomic_write``.  On load, malformed lines (e.g. a torn final write)
    are skipped and digest-mismatched entries dropped — both counted, so
    corruption is visible, never silently trusted.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.entries: dict[str, dict] = {}
        #: Entries dropped on load because their digest did not match.
        self.corrupt = 0
        #: Lines skipped on load because they were not valid records.
        self.malformed = 0
        self._handle = None
        if self.path.exists():
            self._load()

    def _load(self) -> None:
        try:
            text = self.path.read_text(encoding="utf-8")
        except OSError:
            return
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except ValueError:
                self.malformed += 1
                continue
            if not isinstance(doc, dict):
                self.malformed += 1
                continue
            if doc.get("kind") == "header":
                continue
            key = doc.get("key")
            payload = doc.get("payload")
            if not isinstance(key, str) or not isinstance(payload, dict):
                self.malformed += 1
                continue
            if doc.get("digest") != payload_digest(payload):
                self.corrupt += 1
                obs_count("runner.journal.corrupt")
                continue
            self.entries[key] = payload

    # -- mapping-ish access ------------------------------------------------

    def __contains__(self, key: str) -> bool:
        return key in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def get(self, key: str) -> dict | None:
        return self.entries.get(key)

    # -- writing -----------------------------------------------------------

    def record(self, key: str, payload: dict) -> bool:
        """Append one completed shard (idempotent; returns True if written)."""
        if key in self.entries:
            return False
        if self._handle is None:
            self._open()
        line = json.dumps(
            {"key": key, "digest": payload_digest(payload), "payload": payload},
            sort_keys=True,
        )
        self._handle.write(line + "\n")
        self.flush()
        self.entries[key] = payload
        return True

    def _open(self) -> None:
        if not self.path.exists():
            header = json.dumps(
                {
                    "kind": "header",
                    "journal_schema": JOURNAL_SCHEMA,
                    "version": __version__,
                },
                sort_keys=True,
            )
            _atomic_write(self.path, (header + "\n").encode("utf-8"))
        self._handle = open(self.path, "a", encoding="utf-8")

    def flush(self) -> None:
        if self._handle is not None:
            self._handle.flush()
            os.fsync(self._handle.fileno())

    def close(self) -> None:
        if self._handle is not None:
            self.flush()
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


# -- the chaos harness ------------------------------------------------------


class ChaosError(RuntimeError):
    """The failure a :class:`ChaosPlan` injects on a "raise" decision."""


@dataclass(frozen=True)
class ChaosPlan:
    """Seeded, deterministic worker-failure injection (test harness).

    Every decision is a pure function of ``(seed, label, attempt)`` — in
    the spirit of :class:`repro.faults.plan.FaultPlan`, but aimed at the
    execution layer rather than the simulated network.  Per shard attempt
    one action fires (probabilities partition ``[0, 1]``):

    * ``kill`` — the worker process exits hard (``os._exit``), breaking
      the pool (crash-recovery path);
    * ``hang`` — the worker sleeps ``hang_s`` seconds, tripping the
      run-timeout path when a deadline is configured;
    * ``raise`` — the worker raises :class:`ChaosError` (plain retry);
    * ``tamper`` — the worker returns a corrupted payload while keeping
      the digest of the true payload (digest-verification path).

    ``max_faults`` caps how many *attempts* of any one shard can be
    chaotic: from attempt ``max_faults`` on, the shard runs clean, so a
    retry budget ``> max_faults`` is guaranteed to converge.
    """

    kill_p: float = 0.0
    hang_p: float = 0.0
    raise_p: float = 0.0
    tamper_p: float = 0.0
    seed: int = 0
    max_faults: int = 1
    hang_s: float = 30.0

    def __post_init__(self) -> None:
        total = 0.0
        for name in ("kill_p", "hang_p", "raise_p", "tamper_p"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {p!r}")
            total += p
        if total > 1.0 + 1e-9:
            raise ConfigError(
                f"chaos probabilities must sum to <= 1, got {total!r}"
            )
        if self.max_faults < 0:
            raise ConfigError(
                f"max_faults must be >= 0, got {self.max_faults!r}"
            )
        if self.hang_s <= 0:
            raise ConfigError(f"hang_s must be > 0, got {self.hang_s!r}")

    @property
    def is_null(self) -> bool:
        return self.kill_p == self.hang_p == self.raise_p == self.tamper_p == 0.0

    def _draw(self, label: str, attempt: int) -> float:
        seed_key = f"{self.seed}|{label}|{attempt}".encode("utf-8")
        digest = hashlib.sha256(seed_key).digest()
        return int.from_bytes(digest[:8], "big") / 2.0**64

    def decide(self, label: str, attempt: int) -> str:
        """The action for this (shard label, attempt): deterministic."""
        if attempt >= self.max_faults:
            return "none"
        u = self._draw(label, attempt)
        for action, p in (
            ("kill", self.kill_p),
            ("hang", self.hang_p),
            ("raise", self.raise_p),
            ("tamper", self.tamper_p),
        ):
            if u < p:
                return action
            u -= p
        return "none"

    def inflict(self, label: str, attempt: int, in_worker: bool = True) -> str:
        """Apply the pre-compute action (kill/hang/raise) for this attempt.

        In-process runs (``in_worker=False``) cannot kill or hang the
        parent process, so both downgrade to a raised :class:`ChaosError`.
        """
        action = self.decide(label, attempt)
        if action in ("kill", "hang") and not in_worker:
            raise ChaosError(
                f"chaos {action} (inline) for {label!r} attempt {attempt}"
            )
        if action == "kill":
            os._exit(3)
        if action == "hang":
            time.sleep(self.hang_s)
        if action == "raise":
            raise ChaosError(f"chaos raise for {label!r} attempt {attempt}")
        return action

    def tamper(self, payload: dict, label: str, attempt: int) -> dict:
        """Corrupt the payload (but not its digest) on a "tamper" decision."""
        if self.decide(label, attempt) == "tamper":
            return {"__chaos_tampered__": True, "label": label}
        return payload


# -- the resilient executor -------------------------------------------------


@dataclass(frozen=True)
class Job:
    """One unit of resilient batch work: a sweep point or a whole run."""

    key: str               # content address — identity across retries/resumes
    label: str             # progress label, e.g. "E-T6[3]"
    kind: str              # "run" | "point"
    experiment_id: str
    seed: int
    scale: float
    index: int = -1
    point: object = None
    seq: int = 0           # submission order (stable processing and merging)


class _Flight:
    """One in-flight submission of a job to the pool."""

    __slots__ = ("job", "attempt", "deadline")

    def __init__(self, job: Job, attempt: int, deadline: float | None):
        self.job = job
        self.attempt = attempt
        self.deadline = deadline


#: Every worker PID the executor has seen (diagnostics: the interrupt test
#: asserts all of them are dead after a batch unwinds).
_LAST_POOL_PIDS: set[int] = set()


def last_worker_pids() -> set[int]:
    """PIDs of all pool workers seen so far in this process (diagnostics)."""
    return set(_LAST_POOL_PIDS)


def _remember_pids(pool) -> None:
    _LAST_POOL_PIDS.update((getattr(pool, "_processes", None) or {}).keys())


class _InProcess:
    """The ``max_workers == 1`` executor: each submission runs now, here.

    ``submit`` calls the function in the caller's process and returns an
    already-resolved future, so :func:`run_resilient` takes it through
    the same digest check, retries and callbacks as a pool's.  Nothing
    is pickled and no process starts; a hang cannot be interrupted, so
    ``run_timeout`` is not enforced.
    """

    def submit(self, fn, /, *args, **kwargs) -> Future:
        future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except Exception as exc:
            future.set_exception(exc)
        return future

    def shutdown(self, wait: bool = True, cancel_futures: bool = False) -> None:
        pass


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Kill a pool *now*: terminate workers, cancel queued futures, join.

    ``shutdown`` alone cannot reclaim a hung or dead worker; terminating
    the processes first guarantees nothing leaks, at the cost of losing
    whatever those workers were computing (their shards are re-submitted
    by the caller).
    """
    procs = list((getattr(pool, "_processes", None) or {}).values())
    for proc in procs:
        try:
            proc.terminate()
        except Exception:
            pass
    try:
        pool.shutdown(wait=True, cancel_futures=True)
    except Exception:
        pass
    for proc in procs:
        try:
            proc.join(timeout=5.0)
        except Exception:
            pass


def _guarded(callback, *args, **kwargs) -> None:
    """Run a bookkeeping callback without letting it fail the batch.

    Progress sinks, cache writes, and journal appends are observational:
    an error there must not lose computed results.  It must not vanish
    either — each failure increments ``runner.callback_errors`` and
    prints a one-line warning.
    """
    try:
        callback(*args, **kwargs)
    except Exception as exc:
        obs_count("runner.callback_errors")
        name = getattr(callback, "__name__", repr(callback))
        print(
            f"warning: batch callback {name} failed: {exc!r}",
            file=sys.stderr,
        )


def _wait_timeout(queue, flights, now: float) -> float | None:
    """Seconds until the next deadline or backoff expiry (None = no bound)."""
    bounds = [
        flight.deadline
        for flight in flights.values()
        if flight.deadline is not None
    ]
    bounds.extend(due for due, _, _ in queue)
    if not bounds:
        return None
    return max(0.0, min(bounds) - now)


def run_resilient(
    jobs: list[Job],
    submit,
    policy: RunPolicy,
    max_workers: int,
    tracker=None,
    on_success=None,
    on_snapshot=None,
    clock=time.monotonic,
    sleep=time.sleep,
) -> tuple[dict[str, tuple[dict, dict | None]], list[FailedShard], ResilienceStats]:
    """Run jobs on a process pool, surviving crashes, hangs, and lies.

    ``submit(pool, job, attempt)`` must return a future resolving to the
    worker triple ``(payload, snapshot, digest)``.  With ``max_workers ==
    1`` the "pool" is in-process: each job runs in the caller's process,
    one at a time in ``(attempt, seq)`` order, and is checked and reported
    before the next one starts.  It goes through the same retries,
    quarantine and digest check, but no process starts, no PID is
    recorded and ``policy.run_timeout`` is not enforced.  Returns
    ``(results, failed, stats)`` where ``results`` maps ``job.key`` to
    ``(payload, snapshot)`` for every shard that eventually succeeded,
    ``failed`` lists quarantined shards, and ``stats`` counts recovery
    events.  ``on_success(job, payload)`` fires once per success (cache
    and journal writes); ``on_snapshot(job, snapshot)`` fires once per
    success *at completion time* with the worker's telemetry snapshot —
    the live-observatory hook that lets the batch layer fold worker
    metrics into the parent registry while the sweep is still running;
    ``tracker`` receives ``job_done`` / ``job_retry`` / ``job_failed``.
    All three are guarded: their errors are counted and warned, never
    raised.

    On any interrupt (``KeyboardInterrupt`` — including SIGTERM converted
    by :func:`signal_guard` — or a strict-mode abort) the pool is killed
    and joined before the exception propagates, so no worker outlives the
    batch.
    """
    stats = ResilienceStats()
    failed: list[FailedShard] = []
    results: dict[str, tuple[dict, dict | None]] = {}
    queue: list[tuple[float, Job, int]] = [(0.0, job, 0) for job in jobs]
    flights: dict[object, _Flight] = {}
    in_process = max_workers == 1
    pool: ProcessPoolExecutor | _InProcess | None = None
    broken = False

    def ensure_pool() -> ProcessPoolExecutor | _InProcess:
        nonlocal pool, broken
        if pool is not None and broken:
            _terminate_pool(pool)
            pool = None
            stats.pool_rebuilds += 1
            obs_count("runner.resilience.pool_rebuilds")
        if pool is None:
            pool = (
                _InProcess()
                if in_process
                else ProcessPoolExecutor(max_workers=max_workers)
            )
            broken = False
        return pool

    def fail_or_retry(flight: _Flight, exc: BaseException) -> None:
        attempts = flight.attempt + 1
        if attempts >= policy.max_attempts:
            shard = FailedShard(
                experiment_id=flight.job.experiment_id,
                kind=flight.job.kind,
                label=flight.job.label,
                index=flight.job.index,
                point=flight.job.point,
                seed=flight.job.seed,
                scale=flight.job.scale,
                error=f"{type(exc).__name__}: {exc}",
                attempts=attempts,
            )
            failed.append(shard)
            obs_count("runner.resilience.quarantined")
            if tracker is not None:
                _guarded(tracker.job_failed, flight.job.label)
            if policy.strict:
                raise ResilienceError(
                    f"shard {flight.job.label!r} failed after {attempts} "
                    f"attempt(s): {shard.error}",
                    failed=failed,
                )
        else:
            stats.retries += 1
            obs_count("runner.resilience.retries")
            if tracker is not None:
                _guarded(tracker.job_retry, flight.job.label)
            queue.append(
                (clock() + policy.backoff(attempts), flight.job, attempts)
            )

    try:
        while queue or flights:
            now = clock()
            due = sorted(
                (item for item in queue if item[0] <= now),
                key=lambda item: (item[2], item[1].seq),
            )
            if due:
                if in_process:
                    # One job per pass: it is checked, reported and
                    # journaled before the next one runs.
                    due = due[:1]
                queue = [item for item in queue if item not in due]
                active = ensure_pool()
                for _, job, attempt in due:
                    try:
                        future = submit(active, job, attempt)
                    except BrokenExecutor:
                        broken = True
                        queue.append((now, job, attempt))
                        continue
                    deadline = (
                        now + policy.run_timeout
                        if policy.run_timeout is not None and not in_process
                        else None
                    )
                    flights[future] = _Flight(job, attempt, deadline)
                _remember_pids(active)
            if not flights:
                if queue:
                    delay = min(item[0] for item in queue) - clock()
                    if delay > 0:
                        sleep(delay)
                continue
            done, _ = wait(
                list(flights),
                timeout=_wait_timeout(queue, flights, clock()),
                return_when=FIRST_COMPLETED,
            )
            for future in sorted(done, key=lambda f: flights[f].job.seq):
                flight = flights.pop(future)
                try:
                    payload, snapshot, digest = future.result()
                    if digest != payload_digest(payload):
                        raise PayloadCorruption(
                            f"shard {flight.job.label!r} returned a payload "
                            "that does not match its sha256 digest"
                        )
                except CancelledError:
                    # Collateral of a pool teardown — resubmit, no charge.
                    queue.append((clock(), flight.job, flight.attempt))
                except BrokenExecutor as exc:
                    broken = True
                    stats.crashes += 1
                    obs_count("runner.resilience.crashes")
                    fail_or_retry(flight, exc)
                except PayloadCorruption as exc:
                    stats.corrupt_payloads += 1
                    obs_count("runner.resilience.corrupt_payloads")
                    fail_or_retry(flight, exc)
                except Exception as exc:
                    fail_or_retry(flight, exc)
                else:
                    results[flight.job.key] = (payload, snapshot)
                    if on_snapshot is not None:
                        _guarded(on_snapshot, flight.job, snapshot)
                    if on_success is not None:
                        _guarded(on_success, flight.job, payload)
                    if tracker is not None:
                        _guarded(
                            tracker.job_done,
                            flight.job.label,
                            slots=snapshot_slots(snapshot),
                        )
            now = clock()
            overdue = {
                future
                for future, flight in flights.items()
                if flight.deadline is not None and flight.deadline <= now
            }
            if overdue:
                # A hung worker cannot be cancelled: the pool must die.
                # Only the overdue shard is charged an attempt; in-flight
                # victims are re-submitted for free.
                broken = True
                victims = [f for f in flights if f not in overdue]
                for future in sorted(
                    overdue, key=lambda f: flights[f].job.seq
                ):
                    flight = flights.pop(future)
                    stats.timeouts += 1
                    obs_count("runner.resilience.timeouts")
                    fail_or_retry(
                        flight,
                        TimeoutError(
                            f"run exceeded the {policy.run_timeout:g}s "
                            "deadline"
                        ),
                    )
                for future in victims:
                    flight = flights.pop(future)
                    queue.append((now, flight.job, flight.attempt))
    except BaseException:
        if pool is not None:
            _terminate_pool(pool)
        raise
    if pool is not None:
        if broken:
            _terminate_pool(pool)
        else:
            pool.shutdown(wait=True)
    return results, failed, stats


# -- signal handling --------------------------------------------------------


@contextmanager
def signal_guard():
    """Convert SIGTERM to ``KeyboardInterrupt`` for the guarded scope.

    A terminated sweep then unwinds through the same cleanup path as
    Ctrl-C: the pool is killed and joined, the journal is flushed and
    closed, the progress tracker finishes.  Installed only in the main
    thread (signal handlers cannot be set elsewhere); a no-op otherwise.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return

    def _handler(signum, frame):
        raise KeyboardInterrupt(f"signal {signum}")

    try:
        previous = signal.signal(signal.SIGTERM, _handler)
    except (ValueError, OSError):  # pragma: no cover - exotic platforms
        yield
        return
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)
