"""Experiment fan-out with deterministic merging.

:func:`run_batch` plans a list of experiments as jobs and runs them
through :func:`~repro.runner.resilience.run_resilient`, the one job
executor: across worker processes when ``jobs > 1``, in this process
when ``jobs == 1``.  Monolithic experiments are one job each; shardable
sweeps (declared via :func:`~repro.experiments.registry.register_sweep`)
fan out one job per sweep point when ``jobs > 1``, so a single
heavyweight sweep also saturates the pool.  At ``jobs == 1`` a sweep is
one whole-experiment job, since in-process sharding buys nothing.

:class:`JobPlan` is the one sweep-point executor: each point comes from
the shard cache, then the journal, else from a point job, and the
payloads merge in point order.  :func:`run_batch` plans its sweeps with
it, and so does :func:`repro.arena.run_tournament`, whose cells are
``E-ARENA`` points at every ``jobs``; the two share shard-cache entries.

Determinism is the design constraint everything else serves:

* job *payloads* are only primitives — ``(experiment_id, point, index,
  seed, scale)`` — and workers resolve the sweep closures locally by
  re-importing the registry, so nothing order-dependent or unpicklable
  crosses a process boundary;
* results are merged **in submission order**, never completion order —
  and never by attempt count, so a retried shard merges identically to a
  first-try one;
* a whole-experiment run composes the exact same ``run_point`` calls in
  the exact same order (see ``register_sweep``), so ``--jobs N`` yields
  byte-identical reports for every ``N``, and a cache-warm run is
  byte-identical to a cold one.

Fault tolerance is delegated to :mod:`repro.runner.resilience` at every
``jobs``: a :class:`~repro.runner.resilience.RunPolicy` controls retries,
per-run deadlines (pool only), and strict vs keep-going semantics; an
optional :class:`~repro.runner.resilience.SweepJournal` checkpoints
completed jobs so an interrupted sweep resumes where it died, at any
``jobs``; and a (test-only) :class:`~repro.runner.resilience.ChaosPlan`
injects worker failures.  Shards that exhaust their budget land in
``BatchReport.failed`` as structured
:class:`~repro.runner.resilience.FailedShard` records, and experiments
with missing shards are reported in ``notes`` rather than aborting the
rest of the batch.

Pool workers inherit the parent's cache directory and telemetry
enablement via explicit arguments (not inherited globals — the pool may
spawn).  When telemetry is on, each worker returns its registry snapshot
and the parent folds them into its own registry with
:meth:`~repro.obs.registry.MetricsRegistry.merge_snapshot`; in-process
jobs count straight into the live registry.  Every job return carries a
sha256 digest of its true payload, verified by the parent before the
payload is merged or cached.
"""

from __future__ import annotations

import os
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
    ResilienceStats,
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


# -- the job function (module-level: picklable under spawn) ---------------


def _worker_setup(cache_root: str | None, telemetry: bool) -> None:
    use_cache(cache_root)
    if telemetry:
        # A fresh registry per job: a worker that runs several jobs must
        # return each job's own snapshot, not a running total.
        set_telemetry(Telemetry(enabled=True))


def _run_job(
    job: Job,
    attempt: int,
    chaos: ChaosPlan | None,
    worker: tuple[str | None, bool] | None,
) -> tuple[dict, dict | None, str]:
    """Compute one job: returns (payload, snapshot, digest).

    A ``"run"`` job's payload is the whole result's ``as_dict``; a
    ``"point"`` job's is one sweep point.  ``worker`` is ``(cache_root,
    telemetry)`` in a pool process, which installs that cache and a fresh
    registry and returns the registry's snapshot.  It is None in-process:
    the job then uses the caller's cache and live registry and returns no
    snapshot.  The digest is computed over the *true* payload before any
    chaos tampering, so a tampered return is caught by the parent's check.
    """
    if worker is not None:
        _worker_setup(*worker)
    if chaos is not None:
        chaos.inflict(job.label, attempt, in_worker=worker is not None)
    if job.kind == "point":
        payload = registry.run_point(
            job.experiment_id, job.point, job.index,
            seed=job.seed, scale=job.scale,
        )
    else:
        payload = registry.run(
            job.experiment_id, seed=job.seed, scale=job.scale
        ).as_dict()
    digest = payload_digest(payload)
    if chaos is not None:
        payload = chaos.tamper(payload, job.label, attempt)
    telemetry = worker is not None and worker[1]
    snapshot = get_telemetry().registry.snapshot() if telemetry else None
    return payload, snapshot, digest


# -- the batch driver ------------------------------------------------------


def run_batch(
    experiment_ids: list[str],
    seed: int = 0,
    scale: float = 1.0,
    jobs: int = 1,
    progress=None,
    policy: RunPolicy | None = None,
    journal: str | Path | SweepJournal | None = None,
    chaos: ChaosPlan | None = None,
) -> BatchReport:
    """Run experiments, fanning work across ``jobs`` worker processes.

    ``jobs == 1`` runs one job per experiment in this process (no pool,
    no pickling) through the same executor, so retries, quarantine and
    the digest check apply there too; ``jobs == 0`` means auto (one per
    CPU).  The returned results are in ``experiment_ids`` order
    regardless of worker scheduling, and are byte-identical for every
    ``jobs`` value.

    Fault tolerance (see :mod:`repro.runner.resilience`):

    * ``policy`` — retry budget, backoff, per-run deadline, strictness
      (default :data:`~repro.runner.resilience.DEFAULT_POLICY`: 3
      attempts, no deadline, keep-going).  In keep-going mode,
      exhausted shards land in ``report.failed`` and their experiments
      are omitted from ``report.results`` with a note.  ``run_timeout``
      is only enforced in pool mode — an in-process run cannot be
      interrupted from within.
    * ``journal`` — a path (or an open
      :class:`~repro.runner.resilience.SweepJournal`) checkpointing
      completed jobs; a rerun with the same journal, at any ``jobs``,
      re-executes only the unfinished work (``report.journal_skips``
      counts the journal entries reused).
      SIGTERM is converted to ``KeyboardInterrupt`` for the duration, so
      a terminated sweep flushes the journal and kills its pool before
      unwinding.
    * ``chaos`` — a seeded, deterministic failure injector (tests only).

    Workers run with telemetry when the caller's telemetry is live (a
    telemetry session, or ``--serve``), and their snapshots fold into
    its registry.

    ``progress`` is an optional sink (any callable taking a
    :class:`~repro.obs.progress.ProgressEvent`): per-job completion
    events carry completed/total counts, worker slots/sec (when
    telemetry is on), retries/failures, and an ETA.  Progress is
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
            _run_pending(
                pending, seed, scale, jobs, cache, policy,
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


def _fmt_error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


class JobPlan:
    """Jobs to run, and the payloads reused in their place, as one batch.

    :meth:`points` plans a sweep's points for both :func:`run_batch` and
    :func:`repro.arena.run_tournament`: each point comes from the shard
    cache, then the journal, else from a point job.  :meth:`run` executes
    the planned jobs through :func:`~repro.runner.resilience.run_resilient`
    (in this process when ``jobs == 1``) and stores each computed payload
    in the journal and, for a point, in the shard cache.  :meth:`payload`
    reads any planned key back, so callers merge in their own point
    order, never in completion order.
    """

    def __init__(self, cache: ContentCache | None, journal: SweepJournal | None):
        self.cache = cache
        self.journal = journal
        self.work: list[Job] = []
        self.reused: dict[str, dict] = {}  # key -> payload (cache or journal hit)
        self.reused_labels: list[str] = []
        self.from_cache = 0
        self.from_journal = 0
        self.worker_snapshots = 0
        #: ``job.key -> (payload, snapshot)`` for every job that succeeded.
        self.results: dict[str, tuple[dict, dict | None]] = {}

    def journaled(self, key: str) -> bool:
        return self.journal is not None and key in self.journal

    def add(self, job: Job) -> None:
        self.work.append(replace(job, seq=len(self.work)))

    def reuse_journaled(self, key: str, label: str) -> None:
        self.reused[key] = self.journal.get(key)
        self.reused_labels.append(label)
        self.from_journal += 1
        obs_count("runner.resilience.resume_skips")

    def points(
        self,
        experiment_id: str,
        points: list,
        seed: int,
        scale: float,
        labels: list[str] | None = None,
    ) -> list[str]:
        """Plan one sweep's points; return their keys in point order.

        ``labels`` names each point in progress events (default
        ``"<experiment_id>[<index>]"``).
        """
        if labels is None:
            labels = [f"{experiment_id}[{index}]" for index in range(len(points))]
        keys = []
        for index, (point, label) in enumerate(zip(points, labels)):
            key = _shard_key(experiment_id, point, index, seed, scale)
            payload = (
                self.cache.load_json("shards", key)
                if self.cache is not None
                else None
            )
            if payload is not None:
                self.reused[key] = payload
                self.reused_labels.append(label)
                self.from_cache += 1
            elif self.journaled(key):
                self.reuse_journaled(key, label)
            else:
                self.add(Job(
                    key=key, label=label, kind="point",
                    experiment_id=experiment_id, seed=seed, scale=scale,
                    index=index, point=point,
                ))
            keys.append(key)
        return keys

    def run(
        self,
        jobs: int,
        policy: RunPolicy,
        tracker: ProgressTracker | None = None,
        chaos: ChaosPlan | None = None,
    ) -> tuple[list[FailedShard], ResilienceStats]:
        """Report the reused payloads to ``tracker``, then run the jobs."""
        worker = (
            (
                str(self.cache.root) if self.cache is not None else None,
                get_telemetry().enabled,
            )
            if jobs > 1
            else None
        )
        if tracker is not None:
            for label in self.reused_labels:
                tracker.job_done(label, cached=True)

        def submit(pool, job: Job, attempt: int):
            return pool.submit(_run_job, job, attempt, chaos, worker)

        def on_success(job: Job, payload: dict) -> None:
            if self.journal is not None:
                _guarded(self.journal.record, job.key, payload)
            if self.cache is not None and job.kind == "point":
                _guarded(self.cache.store_json, "shards", job.key, payload)

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
                self.worker_snapshots += 1

        self.results, failed, stats = run_resilient(
            self.work, submit, policy, max_workers=jobs,
            tracker=tracker, on_success=on_success, on_snapshot=on_snapshot,
        )

        # Deterministic refold in submission (seq) order of what completion
        # order could change: gauge last-values and histogram float totals.
        # The final registry state equals an end-only submission-order merge.
        snapshots = [
            self.results[job.key][1]
            for job in self.work
            if job.key in self.results and self.results[job.key][1] is not None
        ]
        for snapshot in snapshots:
            parent_registry.refold_gauge_values(snapshot)
        parent_registry.refold_histogram_totals(base_totals, snapshots)
        return failed, stats

    def payload(self, key: str) -> dict | None:
        """A planned key's payload: reused or computed (None if it failed)."""
        if key in self.reused:
            return self.reused[key]
        hit = self.results.get(key)
        return hit[0] if hit is not None else None


def _run_pending(
    pending: list[str],
    seed: int,
    scale: float,
    jobs: int,
    cache: ContentCache | None,
    policy: RunPolicy,
    chaos: ChaosPlan | None,
    log: SweepJournal | None,
    report: BatchReport,
    computed: dict[str, ExperimentResult],
    tracker: ProgressTracker | None = None,
    cached_results: dict[str, ExperimentResult] | None = None,
) -> None:
    """Plan the pending experiments, run the jobs, merge in request order.

    A sweep whose every shard key is in the journal is assembled from
    its points.  Otherwise an experiment whose result key is in the
    journal is taken from it.  Otherwise a sweep with ``jobs > 1`` is
    assembled from its points (planned by :meth:`JobPlan.points`), and
    anything else is one whole-experiment job.  So a journal resumes at
    any ``jobs``, whichever granularity wrote it.

    ``jobs == 1`` never shards (in-process sharding buys nothing): one job
    per experiment keeps one progress event, one result-keyed journal
    entry and one ``registry.run`` call per experiment.
    """
    plan = JobPlan(cache, log)
    sweeps: dict[str, list[str]] = {}  # experiment id -> its point keys
    for experiment_id in pending:
        spec = registry.sweep_spec(experiment_id)
        points = spec.points(seed, scale) if spec is not None else []
        result_key = _result_key(experiment_id, seed, scale)
        complete = bool(points) and all(
            plan.journaled(_shard_key(experiment_id, point, index, seed, scale))
            for index, point in enumerate(points)
        )
        if not complete and plan.journaled(result_key):
            plan.reuse_journaled(result_key, experiment_id)
        elif complete or (points and jobs > 1):
            sweeps[experiment_id] = plan.points(experiment_id, points, seed, scale)
            report.shard_jobs += len(points)
        else:
            plan.add(Job(
                key=result_key, label=experiment_id, kind="run",
                experiment_id=experiment_id, seed=seed, scale=scale,
            ))
    report.shard_cache_hits += plan.from_cache
    report.journal_skips += plan.from_journal

    if tracker is not None:
        # Job granularity: one per shard/monolithic run, plus the cache
        # and journal hits (counted as instantly-completed work).
        tracker.total = (
            len(plan.work) + len(plan.reused_labels) + len(cached_results or {})
        )
        tracker.start()
        for experiment_id in (cached_results or {}):
            tracker.job_done(experiment_id, cached=True)

    failed, stats = plan.run(jobs, policy, tracker=tracker, chaos=chaos)
    report.failed.extend(failed)
    report.retries += stats.retries
    report.timeouts += stats.timeouts
    report.crashes += stats.crashes
    report.corrupt_payloads += stats.corrupt_payloads
    report.pool_rebuilds += stats.pool_rebuilds
    report.worker_snapshots += plan.worker_snapshots

    # Assemble in request order; completion order never matters.
    incomplete = {shard.experiment_id for shard in report.failed}
    for experiment_id in pending:
        if experiment_id in incomplete:
            continue
        if experiment_id in sweeps:
            payloads = [plan.payload(key) for key in sweeps[experiment_id]]
            if any(payload is None for payload in payloads):
                continue  # lost to a sibling's strict abort — not assembled
            spec = registry.sweep_spec(experiment_id)
            computed[experiment_id] = spec.assemble(
                payloads, seed=seed, scale=scale
            )
        else:
            raw = plan.payload(_result_key(experiment_id, seed, scale))
            if raw is None:
                continue
            try:
                computed[experiment_id] = ExperimentResult.from_dict(raw)
            except (KeyError, TypeError, ValueError) as exc:
                report.notes.append(
                    f"{experiment_id}: journaled/returned payload did not "
                    f"decode ({_fmt_error(exc)})"
                )
