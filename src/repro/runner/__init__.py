"""Batch execution layer: parallel runner + content-addressed cache + resilience.

``repro.runner`` sits between the CLI and the experiment registry:

* :mod:`repro.runner.cache` — content-addressed reuse of generated
  feasible workloads and finished experiment results, keyed by the
  sha256 of the full generating configuration plus the code version.
  Every entry carries a digest verified on load; corrupt entries are
  quarantined, counted, and auditable via ``repro cache verify``.
* :mod:`repro.runner.batch` — process-parallel fan-out of experiments
  (and of independent sweep points inside shardable experiments) with
  deterministic, order-preserving result merging: ``repro report
  --jobs N`` is byte-identical for every ``N``.  Its
  :class:`~repro.runner.batch.JobPlan` is the one sweep-point executor;
  the arena tournament runs its cells through it as ``E-ARENA`` points.
* :mod:`repro.runner.resilience` — the one job executor under the batch
  runner (in-process at ``--jobs 1``): per-shard retry budgets with
  exponential backoff (:class:`RunPolicy`), crash recovery (pool
  rebuild + lost-shard resubmission), per-run deadlines, structured
  quarantine (:class:`FailedShard`), an append-only checkpoint journal
  (:class:`SweepJournal`, ``repro report --resume``), and a seeded
  chaos harness (:class:`ChaosPlan`) for tests.
"""

from repro.runner.batch import BatchReport, default_jobs, run_batch
from repro.runner.cache import (
    ContentCache,
    cached_feasible_stream,
    cached_multi_feasible,
    get_cache,
    payload_digest,
    use_cache,
)
from repro.runner.resilience import (
    DEFAULT_POLICY,
    FAIL_FAST,
    ChaosError,
    ChaosPlan,
    FailedShard,
    Job,
    ResilienceStats,
    RunPolicy,
    SweepJournal,
    run_resilient,
    signal_guard,
)

__all__ = [
    "BatchReport",
    "ChaosError",
    "ChaosPlan",
    "ContentCache",
    "DEFAULT_POLICY",
    "FAIL_FAST",
    "FailedShard",
    "Job",
    "ResilienceStats",
    "RunPolicy",
    "SweepJournal",
    "cached_feasible_stream",
    "cached_multi_feasible",
    "default_jobs",
    "get_cache",
    "payload_digest",
    "run_batch",
    "run_resilient",
    "signal_guard",
    "use_cache",
]
