"""Deterministic tournament sweep over the arena's cell grid.

Orchestration reuses the batch-execution layer wholesale: cells run
through :func:`repro.runner.run_resilient` at every ``jobs`` (retries,
crash recovery, digest verification; in-process at ``jobs == 1``),
finished payloads land in the ``"arena"`` section
of the :class:`~repro.runner.ContentCache` and in a
:class:`~repro.runner.SweepJournal` for ``--resume``, and the scorecard
is assembled from the canonical cell order — never from completion
order — so ``--jobs 1`` and ``--jobs N``, cold and warm cache, fresh and
resumed runs all serialize byte-identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arena.catalog import FAULTS, MIN_HORIZON, POLICIES, TRAFFIC
from repro.arena.cells import Cell, cell_config, run_cell
from repro.arena.scorecard import build_scorecard
from repro.errors import ConfigError
from repro.obs.runtime import count as obs_count, get_telemetry
from repro.runner import (
    DEFAULT_POLICY,
    ContentCache,
    Job,
    RunPolicy,
    SweepJournal,
    payload_digest,
    run_resilient,
)

_SECTION = "arena"


@dataclass(frozen=True)
class TournamentConfig:
    """Full specification of one tournament run."""

    policies: tuple[str, ...] = tuple(POLICIES)
    traffic: tuple[str, ...] = tuple(TRAFFIC)
    faults: tuple[float, ...] = FAULTS
    k: int = 4
    horizon: int = 256
    seed: int = 0
    scale: float = 1.0
    jobs: int = 1
    run_policy: RunPolicy = DEFAULT_POLICY

    def __post_init__(self) -> None:
        if not self.policies or not self.traffic or not self.faults:
            raise ConfigError("tournament grid must be non-empty on every axis")
        unknown = [p for p in self.policies if p not in POLICIES]
        if unknown:
            raise ConfigError(f"unknown arena policies: {unknown!r}")
        unknown = [t for t in self.traffic if t not in TRAFFIC]
        if unknown:
            raise ConfigError(f"unknown arena traffic models: {unknown!r}")
        if self.horizon < MIN_HORIZON:
            raise ConfigError(
                f"horizon must be >= {MIN_HORIZON}, got {self.horizon!r}"
            )
        if self.k < 2:
            raise ConfigError(f"k must be >= 2, got {self.k!r}")
        if self.jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {self.jobs!r}")

    def cells(self) -> list[Cell]:
        """The canonical grid order: policy-major, then traffic, fault."""
        return [
            Cell(policy=p, traffic=t, fault=f)
            for p in self.policies
            for t in self.traffic
            for f in self.faults
        ]

    def cell_key(self, cell: Cell) -> str:
        return ContentCache.key(
            "arena-cell",
            cell_config(
                cell,
                k=self.k,
                horizon=self.horizon,
                seed=self.seed,
                scale=self.scale,
            ),
        )


@dataclass
class TournamentReport:
    """A scorecard plus how its cells were obtained."""

    scorecard: dict
    computed: int = 0
    from_cache: int = 0
    from_journal: int = 0
    failed: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failed and not self.scorecard["missing"]


def _cell_worker(
    policy: str,
    traffic: str,
    fault: float,
    k: int,
    horizon: int,
    seed: int,
    scale: float,
) -> tuple[dict, None, str]:
    """Job entry point: compute one cell, return the worker triple."""
    payload = run_cell(
        Cell(policy=policy, traffic=traffic, fault=fault),
        k=k,
        horizon=horizon,
        seed=seed,
        scale=scale,
    )
    return payload, None, payload_digest(payload)


def run_tournament(
    config: TournamentConfig,
    *,
    cache: ContentCache | None = None,
    journal: SweepJournal | None = None,
    tracker=None,
) -> TournamentReport:
    """Run (or reuse) every cell in the grid; assemble the scorecard.

    Resolution order per cell: journal (``--resume``), then content
    cache, then compute through :func:`~repro.runner.run_resilient`
    (in-process for ``jobs == 1``, a pool otherwise) under
    ``config.run_policy``.  Journal and cache hits reach ``tracker`` as
    cached jobs.  Every computed payload is stored back to both sinks
    before assembly.
    """
    cells = config.cells()
    report = TournamentReport(scorecard={})
    payloads: dict[str, dict] = {}
    pending: list[tuple[Cell, str]] = []

    # Per-cell progress on the live telemetry plane (observational only:
    # the scorecard bytes never depend on these).
    tele = get_telemetry()
    if tele.enabled:
        tele.registry.gauge("arena.cells.total").set(float(len(cells)))

    for cell in cells:
        key = config.cell_key(cell)
        payload = journal.get(key) if journal is not None else None
        if payload is not None:
            report.from_journal += 1
            obs_count("arena.cells.journal")
        elif cache is not None:
            payload = cache.load_json(_SECTION, key)
            if payload is not None:
                report.from_cache += 1
                obs_count("arena.cells.cached")
                if journal is not None:
                    journal.record(key, payload)
        if payload is None:
            pending.append((cell, key))
            continue
        payloads[cell.name] = payload
        if tracker is not None:
            tracker.job_done(cell.name, cached=True)

    jobs = [
        Job(
            key=key,
            label=cell.name,
            kind="point",
            experiment_id="E-ARENA",
            seed=config.seed,
            scale=config.scale,
            index=index,
            point=(cell.policy, cell.traffic, cell.fault),
            seq=index,
        )
        for index, (cell, key) in enumerate(pending)
    ]

    def submit(pool, job: Job, attempt: int):
        policy_name, traffic_name, fault = job.point
        return pool.submit(
            _cell_worker,
            policy_name,
            traffic_name,
            fault,
            config.k,
            config.horizon,
            config.seed,
            config.scale,
        )

    def on_success(job: Job, payload: dict) -> None:
        obs_count("arena.cells.completed")
        if cache is not None:
            cache.store_json(_SECTION, job.key, payload)
        if journal is not None:
            journal.record(job.key, payload)

    results, failed, _stats = run_resilient(
        jobs,
        submit,
        config.run_policy,
        max_workers=config.jobs,
        tracker=tracker,
        on_success=on_success,
    )
    for job in jobs:
        if job.key in results:
            payloads[job.label] = results[job.key][0]
            report.computed += 1
    report.failed = failed

    report.scorecard = build_scorecard(
        cells,
        payloads,
        k=config.k,
        horizon=config.horizon,
        seed=config.seed,
        scale=config.scale,
    )
    return report
