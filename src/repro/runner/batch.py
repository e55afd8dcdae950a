"""Process-parallel experiment fan-out with deterministic merging.

:func:`run_batch` executes a list of experiments across worker processes.
Monolithic experiments are one job each; shardable sweeps (declared via
:func:`~repro.experiments.registry.register_sweep`) fan out one job per
sweep point, so a single heavyweight sweep also saturates the pool.

Determinism is the design constraint everything else serves:

* job *payloads* are only primitives — ``(experiment_id, point, index,
  seed, scale)`` — and workers resolve the sweep closures locally by
  re-importing the registry, so nothing order-dependent or unpicklable
  crosses a process boundary;
* results are merged **in submission order**, never completion order —
  and never by attempt count, so a retried shard merges identically to a
  first-try one;
* the sequential path composes the exact same ``run_point`` calls in the
  exact same order (see ``register_sweep``), so ``--jobs N`` yields
  byte-identical reports for every ``N``, and a cache-warm run is
  byte-identical to a cold one.

Fault tolerance is delegated to :mod:`repro.runner.resilience`: a
:class:`~repro.runner.resilience.RunPolicy` controls retries, per-run
deadlines, and strict vs keep-going semantics; an optional
:class:`~repro.runner.resilience.SweepJournal` checkpoints completed
shards so an interrupted sweep resumes where it died; and a (test-only)
:class:`~repro.runner.resilience.ChaosPlan` injects worker failures.
Shards that exhaust their budget land in ``BatchReport.failed`` as
structured :class:`~repro.runner.resilience.FailedShard` records, and
experiments with missing shards are reported in ``notes`` rather than
aborting the rest of the batch.

Workers inherit the parent's cache directory and telemetry enablement via
explicit arguments (not inherited globals — the pool may spawn).  When
telemetry is on, each worker returns its registry snapshot and the parent
folds them into its own registry with
:meth:`~repro.obs.registry.MetricsRegistry.merge_snapshot`.  Every worker
return carries a sha256 digest of its true payload, verified by the
parent before the payload is merged or cached.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.errors import ExperimentError
from repro.experiments import registry
from repro.experiments.common import ExperimentResult
from repro.obs.progress import HEARTBEAT_SECONDS, ProgressTracker
from repro.obs.runtime import Telemetry, count as obs_count, get_telemetry, set_telemetry
from repro.runner.cache import ContentCache, get_cache, payload_digest, use_cache
from repro.runner.resilience import (
    DEFAULT_POLICY,
    ChaosPlan,
    FailedShard,
    Job,
    RunPolicy,
    SweepJournal,
    _guarded,
    run_resilient,
    signal_guard,
)


@dataclass
class BatchReport:
    """The outcome of one :func:`run_batch` call."""

    results: list[ExperimentResult]
    jobs: int
    experiments: int = 0
    shard_jobs: int = 0
    result_cache_hits: int = 0
    shard_cache_hits: int = 0
    worker_snapshots: int = 0
    notes: list[str] = field(default_factory=list)
    #: Shards that exhausted their retry budget (keep-going mode).
    failed: list[FailedShard] = field(default_factory=list)
    #: Recovery-event counts (see :class:`ResilienceStats`).
    retries: int = 0
    timeouts: int = 0
    crashes: int = 0
    corrupt_payloads: int = 0
    pool_rebuilds: int = 0
    #: Shards skipped because a resume journal already held their result.
    journal_skips: int = 0

    @property
    def ok(self) -> bool:
        """True when every requested experiment produced a result."""
        return not self.failed and len(self.results) == self.experiments


def default_jobs() -> int:
    """Worker count when the caller asks for ``--jobs 0`` (= auto)."""
    return max(1, os.cpu_count() or 1)


def _result_key(experiment_id: str, seed: int, scale: float) -> str:
    return ContentCache.key(
        "experiment_result",
        {"experiment_id": experiment_id, "seed": seed, "scale": scale},
    )


def _shard_key(experiment_id: str, point, index: int, seed: int, scale: float) -> str:
    return ContentCache.key(
        "sweep_point",
        {
            "experiment_id": experiment_id,
            "point": point,
            "index": index,
            "seed": seed,
            "scale": scale,
        },
    )


# -- worker entry points (module-level: picklable under spawn) ------------


def _worker_setup(cache_root: str | None, telemetry: bool) -> None:
    use_cache(cache_root)
    if telemetry:
        # A fresh registry per job: a worker that runs several jobs must
        # return each job's own snapshot, not a running total.
        set_telemetry(Telemetry(enabled=True))


def _worker_snapshot(telemetry: bool) -> dict | None:
    return get_telemetry().registry.snapshot() if telemetry else None


def _worker_run(
    experiment_id: str,
    seed: int,
    scale: float,
    cache_root: str | None,
    telemetry: bool,
    chaos: ChaosPlan | None = None,
    attempt: int = 0,
    label: str = "",
) -> tuple[dict, dict | None, str]:
    """Whole-experiment job: returns (result dump, snapshot, digest).

    The digest is computed over the *true* payload before any chaos
    tampering, so a tampered return is caught by the parent's check.
    """
    _worker_setup(cache_root, telemetry)
    if chaos is not None:
        chaos.inflict(label or experiment_id, attempt)
    payload = registry.run(experiment_id, seed=seed, scale=scale).as_dict()
    digest = payload_digest(payload)
    if chaos is not None:
        payload = chaos.tamper(payload, label or experiment_id, attempt)
    return payload, _worker_snapshot(telemetry), digest


def _worker_point(
    experiment_id: str,
    point,
    index: int,
    seed: int,
    scale: float,
    cache_root: str | None,
    telemetry: bool,
    chaos: ChaosPlan | None = None,
    attempt: int = 0,
    label: str = "",
) -> tuple[dict, dict | None, str]:
    """Sweep-point job: returns (point payload, snapshot, digest)."""
    _worker_setup(cache_root, telemetry)
    if chaos is not None:
        chaos.inflict(label, attempt)
    payload = registry.run_point(experiment_id, point, index, seed=seed, scale=scale)
    digest = payload_digest(payload)
    if chaos is not None:
        payload = chaos.tamper(payload, label, attempt)
    return payload, _worker_snapshot(telemetry), digest


# -- the batch driver ------------------------------------------------------


def run_batch(
    experiment_ids: list[str],
    seed: int = 0,
    scale: float = 1.0,
    jobs: int = 1,
    telemetry: bool = False,
    progress=None,
    policy: RunPolicy | None = None,
    strict: bool | None = None,
    journal: str | Path | SweepJournal | None = None,
    chaos: ChaosPlan | None = None,
) -> BatchReport:
    """Run experiments, fanning work across ``jobs`` worker processes.

    ``jobs <= 1`` runs everything inline (no pool, no pickling) but still
    uses the result cache; ``jobs == 0`` means auto (one per CPU).  The
    returned results are in ``experiment_ids`` order regardless of worker
    scheduling, and are byte-identical for every ``jobs`` value.

    Fault tolerance (see :mod:`repro.runner.resilience`):

    * ``policy`` — retry budget, backoff, per-run deadline, strictness
      (default :data:`~repro.runner.resilience.DEFAULT_POLICY`: 3
      attempts, no deadline, keep-going).  ``strict`` overrides just the
      policy's ``strict`` flag.  In keep-going mode, exhausted shards
      land in ``report.failed`` and their experiments are omitted from
      ``report.results`` with a note.  ``run_timeout`` is only enforced
      in pool mode — an inline run cannot be interrupted from within.
    * ``journal`` — a path (or an open
      :class:`~repro.runner.resilience.SweepJournal`) checkpointing
      completed shards; a rerun with the same journal re-executes only
      the unfinished shards (``report.journal_skips`` counts the skips).
      SIGTERM is converted to ``KeyboardInterrupt`` for the duration, so
      a terminated sweep flushes the journal and kills its pool before
      unwinding.
    * ``chaos`` — a seeded, deterministic failure injector (tests only).

    ``progress`` is an optional sink (any callable taking a
    :class:`~repro.obs.progress.ProgressEvent`): per-job completion
    events carry completed/total counts, worker slots/sec (when
    ``telemetry`` is on), retries/failures, and an ETA.  Progress is
    observational only — it never changes what is computed or in what
    order it is merged.
    """
    if jobs < 0:
        raise ExperimentError(f"jobs must be >= 0, got {jobs!r}")
    if jobs == 0:
        jobs = default_jobs()
    for experiment_id in experiment_ids:
        registry.get(experiment_id)  # fail fast on unknown ids

    policy = policy if policy is not None else DEFAULT_POLICY
    if strict is not None and strict != policy.strict:
        policy = replace(policy, strict=strict)

    cache = get_cache()
    report = BatchReport(
        results=[], jobs=jobs, experiments=len(experiment_ids)
    )
    tracker = (
        ProgressTracker(
            total=len(experiment_ids),
            sink=progress,
            heartbeat_s=HEARTBEAT_SECONDS,
        )
        if progress is not None
        else None
    )
    own_journal = journal is not None and not isinstance(journal, SweepJournal)
    log = SweepJournal(journal) if own_journal else journal

    # Resolve full-result cache hits up front; what remains is the work.
    pending: list[str] = []
    cached_results: dict[str, ExperimentResult] = {}
    for experiment_id in experiment_ids:
        hit = None
        if cache is not None:
            raw = cache.load_json(
                "results", _result_key(experiment_id, seed, scale)
            )
            if raw is not None:
                try:
                    hit = ExperimentResult.from_dict(raw)
                except (KeyError, TypeError, ValueError):
                    hit = None
        if hit is not None:
            cached_results[experiment_id] = hit
            report.result_cache_hits += 1
        else:
            pending.append(experiment_id)

    computed: dict[str, ExperimentResult] = {}
    try:
        with signal_guard():
            if jobs <= 1 or not pending:
                _run_inline(
                    pending, seed, scale, policy, chaos, log, report,
                    computed, tracker=tracker, cached_results=cached_results,
                )
            else:
                _run_pool(
                    pending, seed, scale, jobs, cache, telemetry, policy,
                    chaos, log, report, computed,
                    tracker=tracker, cached_results=cached_results,
                )
    finally:
        if tracker is not None:
            tracker.finish()
        if own_journal and log is not None:
            log.close()

    for experiment_id, result in computed.items():
        if cache is not None:
            _guarded(
                cache.store_json,
                "results",
                _result_key(experiment_id, seed, scale),
                result.as_dict(),
            )

    report.failed.sort(key=lambda shard: (shard.experiment_id, shard.index))
    incomplete = {shard.experiment_id for shard in report.failed}
    for experiment_id in sorted(incomplete):
        report.notes.append(
            f"{experiment_id}: incomplete (shards failed after retries); "
            "omitted from results"
        )
    report.results = [
        cached_results.get(eid) or computed[eid]
        for eid in experiment_ids
        if eid in cached_results or eid in computed
    ]
    return report


def run_session_batch(
    policy_factory,
    arrivals,
    *,
    drain: bool = True,
    max_drain_slots: int | None = None,
    collect: str = "trace",
):
    """Run many independent single-session simulations over one matrix.

    The session-level sibling of :func:`run_batch`: where ``run_batch``
    fans out registry *experiments*, this fans one ``(n_sessions, T)``
    arrival matrix out into ``n_sessions`` independent engine runs, each
    on the vectorized fast path when the policy supports it (see
    :func:`repro.sim.vector.run_batched`, to which this delegates).

    Args:
        policy_factory: zero-argument callable producing a fresh policy
            per session (policies are stateful).
        arrivals: array-like of shape ``(n_sessions, T)``.
        drain, max_drain_slots: engine drain semantics per session.
        collect: ``"trace"`` for full per-slot traces, ``"summary"`` for
            bounded-memory :class:`~repro.sim.vector.SingleRunSummary`
            aggregates.

    Returns:
        One trace or summary per session, in row order.
    """
    from repro.sim.vector import run_batched

    obs_count("runner.session_batches")
    return run_batched(
        policy_factory,
        arrivals,
        drain=drain,
        max_drain_slots=max_drain_slots,
        collect=collect,
    )


def _fmt_error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _run_inline(
    pending: list[str],
    seed: int,
    scale: float,
    policy: RunPolicy,
    chaos: ChaosPlan | None,
    log: SweepJournal | None,
    report: BatchReport,
    computed: dict[str, ExperimentResult],
    tracker: ProgressTracker | None = None,
    cached_results: dict[str, ExperimentResult] | None = None,
) -> None:
    """Sequential path: experiment granularity, same retry semantics.

    ``run_timeout`` is not enforceable here (the run shares our process),
    but retries, backoff, journaling, and keep-going quarantine all are.
    """
    from repro.errors import ResilienceError

    if tracker is not None:
        tracker.start()
        for experiment_id in (cached_results or {}):
            tracker.job_done(experiment_id, cached=True)
    for experiment_id in pending:
        key = _result_key(experiment_id, seed, scale)
        if log is not None:
            raw = log.get(key)
            if raw is not None:
                try:
                    computed[experiment_id] = ExperimentResult.from_dict(raw)
                except (KeyError, TypeError, ValueError):
                    raw = None
            if raw is not None:
                report.journal_skips += 1
                obs_count("runner.resilience.resume_skips")
                if tracker is not None:
                    _guarded(tracker.job_done, experiment_id, cached=True)
                continue
        attempt = 0
        while True:
            try:
                if chaos is not None:
                    chaos.inflict(experiment_id, attempt, in_worker=False)
                result = registry.run(experiment_id, seed=seed, scale=scale)
            except Exception as exc:
                attempt += 1
                if attempt >= policy.max_attempts:
                    shard = FailedShard(
                        experiment_id=experiment_id,
                        kind="run",
                        label=experiment_id,
                        index=-1,
                        point=None,
                        seed=seed,
                        scale=scale,
                        error=_fmt_error(exc),
                        attempts=attempt,
                    )
                    report.failed.append(shard)
                    obs_count("runner.resilience.quarantined")
                    if tracker is not None:
                        _guarded(tracker.job_failed, experiment_id)
                    if policy.strict:
                        raise ResilienceError(
                            f"experiment {experiment_id!r} failed after "
                            f"{attempt} attempt(s): {shard.error}",
                            failed=report.failed,
                        ) from exc
                    break
                report.retries += 1
                obs_count("runner.resilience.retries")
                if tracker is not None:
                    _guarded(tracker.job_retry, experiment_id)
                time.sleep(policy.backoff(attempt))
            else:
                computed[experiment_id] = result
                if log is not None:
                    _guarded(log.record, key, result.as_dict())
                if tracker is not None:
                    _guarded(tracker.job_done, experiment_id)
                break


def _run_pool(
    pending: list[str],
    seed: int,
    scale: float,
    jobs: int,
    cache: ContentCache | None,
    telemetry: bool,
    policy: RunPolicy,
    chaos: ChaosPlan | None,
    log: SweepJournal | None,
    report: BatchReport,
    computed: dict[str, ExperimentResult],
    tracker: ProgressTracker | None = None,
    cached_results: dict[str, ExperimentResult] | None = None,
) -> None:
    """Dispatch pending experiments to a resilient pool, merge in order."""
    cache_root = str(cache.root) if cache is not None else None

    # Plan: sharded sweeps contribute one job per uncached point;
    # monolithic experiments contribute one whole-run job.  Reuse order
    # per shard: cache hit, then journal hit, then compute.
    sweep_plans: dict[str, list] = {}
    for experiment_id in pending:
        spec = registry.sweep_spec(experiment_id)
        if spec is not None:
            sweep_plans[experiment_id] = spec.points(seed, scale)

    work: list[Job] = []
    reused: dict[str, dict] = {}  # key -> payload (cache or journal hit)
    reused_labels: list[tuple[str, bool]] = []  # (label, from_cache)
    seq = 0

    def plan(job: Job) -> None:
        nonlocal seq
        work.append(replace(job, seq=seq))
        seq += 1

    def reuse(key: str, label: str, payload: dict, from_cache: bool) -> None:
        reused[key] = payload
        reused_labels.append((label, from_cache))
        if from_cache:
            report.shard_cache_hits += 1
        else:
            report.journal_skips += 1
            obs_count("runner.resilience.resume_skips")

    for experiment_id in pending:
        if experiment_id in sweep_plans:
            points = sweep_plans[experiment_id]
            report.shard_jobs += len(points)
            for index, point in enumerate(points):
                key = _shard_key(experiment_id, point, index, seed, scale)
                label = f"{experiment_id}[{index}]"
                payload = (
                    cache.load_json("shards", key)
                    if cache is not None
                    else None
                )
                if payload is not None:
                    reuse(key, label, payload, from_cache=True)
                    continue
                if log is not None and key in log:
                    reuse(key, label, log.get(key), from_cache=False)
                    continue
                plan(Job(
                    key=key, label=label, kind="point",
                    experiment_id=experiment_id, seed=seed, scale=scale,
                    index=index, point=point,
                ))
        else:
            key = _result_key(experiment_id, seed, scale)
            if log is not None and key in log:
                reuse(key, experiment_id, log.get(key), from_cache=False)
                continue
            plan(Job(
                key=key, label=experiment_id, kind="run",
                experiment_id=experiment_id, seed=seed, scale=scale,
            ))

    if tracker is not None:
        # Job granularity: one per shard/monolithic run, plus the cache
        # and journal hits (counted as instantly-completed work).
        tracker.total = (
            len(work) + len(reused_labels) + len(cached_results or {})
        )
        tracker.start()
        for experiment_id in (cached_results or {}):
            tracker.job_done(experiment_id, cached=True)
        for label, _ in reused_labels:
            tracker.job_done(label, cached=True)

    def submit(pool, job: Job, attempt: int):
        if job.kind == "point":
            return pool.submit(
                _worker_point, job.experiment_id, job.point, job.index,
                seed, scale, cache_root, telemetry, chaos, attempt, job.label,
            )
        return pool.submit(
            _worker_run, job.experiment_id, seed, scale,
            cache_root, telemetry, chaos, attempt, job.label,
        )

    def on_success(job: Job, payload: dict) -> None:
        if log is not None:
            _guarded(log.record, job.key, payload)
        if cache is not None and job.kind == "point":
            _guarded(cache.store_json, "shards", job.key, payload)

    # Fold worker telemetry into the parent registry *as shards
    # complete*, so a live scrape (``--serve``) sees counters move
    # mid-sweep.  Completion order is safe for every commutative field
    # (counters add, histogram buckets add, gauge ranges widen); only a
    # gauge's last value is order-dependent, which the refold pass below
    # re-asserts in submission order once the sweep is done.
    parent_registry = get_telemetry().registry
    base_totals = parent_registry.histogram_totals()

    def on_snapshot(job: Job, snapshot: dict | None) -> None:
        if snapshot is not None:
            parent_registry.merge_snapshot(snapshot)
            report.worker_snapshots += 1

    results, failed, stats = run_resilient(
        work, submit, policy, max_workers=jobs,
        tracker=tracker, on_success=on_success, on_snapshot=on_snapshot,
    )
    report.failed.extend(failed)
    report.retries += stats.retries
    report.timeouts += stats.timeouts
    report.crashes += stats.crashes
    report.corrupt_payloads += stats.corrupt_payloads
    report.pool_rebuilds += stats.pool_rebuilds

    # Deterministic refold in submission (seq) order of what completion
    # order could change: gauge last-values and histogram float totals.
    # The final registry state equals an end-only submission-order merge.
    snapshots = [
        results[job.key][1]
        for job in work
        if job.key in results and results[job.key][1] is not None
    ]
    for snapshot in snapshots:
        parent_registry.refold_gauge_values(snapshot)
    parent_registry.refold_histogram_totals(base_totals, snapshots)

    def payload_for(key: str) -> dict | None:
        if key in reused:
            return reused[key]
        hit = results.get(key)
        return hit[0] if hit is not None else None

    # Assemble in request order; completion order never matters.
    incomplete = {shard.experiment_id for shard in report.failed}
    for experiment_id in pending:
        if experiment_id in incomplete:
            continue
        if experiment_id in sweep_plans:
            points = sweep_plans[experiment_id]
            payloads = [
                payload_for(_shard_key(experiment_id, point, index, seed, scale))
                for index, point in enumerate(points)
            ]
            if any(payload is None for payload in payloads):
                continue  # lost to a sibling's strict abort — not assembled
            spec = registry.sweep_spec(experiment_id)
            computed[experiment_id] = spec.assemble(
                payloads, seed=seed, scale=scale
            )
        else:
            raw = payload_for(_result_key(experiment_id, seed, scale))
            if raw is None:
                continue
            try:
                computed[experiment_id] = ExperimentResult.from_dict(raw)
            except (KeyError, TypeError, ValueError) as exc:
                report.notes.append(
                    f"{experiment_id}: journaled/returned payload did not "
                    f"decode ({_fmt_error(exc)})"
                )
