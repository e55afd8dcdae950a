"""Deterministic tournament sweep over the arena's cell grid.

A tournament cell is an ``E-ARENA`` sweep point that carries its own
``k`` and horizon (:func:`~repro.arena.cells.cell_point`), so the batch
runner's point path does all the orchestration: a
:class:`~repro.runner.batch.JobPlan` takes each cell from the shard
cache, then the :class:`~repro.runner.SweepJournal` (``--resume``), else
runs a point job through :func:`repro.runner.run_resilient` at every
``jobs`` (retries, crash recovery, digest verification; in-process at
``jobs == 1``).  A ``repro report`` that ran ``E-ARENA`` by points
therefore warms the same cache entries.  The scorecard is assembled from
the canonical cell order, never from completion order, so ``--jobs 1``
and ``--jobs N``, cold and warm cache, fresh and resumed runs all
serialize byte-identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arena.catalog import FAULTS, MIN_HORIZON, POLICIES, TRAFFIC
from repro.arena.cells import Cell, cell_point
from repro.arena.scorecard import build_scorecard
from repro.errors import ConfigError
from repro.runner import DEFAULT_POLICY, ContentCache, RunPolicy, SweepJournal
from repro.runner.batch import JobPlan


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


def run_tournament(
    config: TournamentConfig,
    *,
    cache: ContentCache | None = None,
    journal: SweepJournal | None = None,
    tracker=None,
) -> TournamentReport:
    """Run (or reuse) every cell in the grid; assemble the scorecard.

    Each cell is one ``E-ARENA`` point planned by
    :meth:`~repro.runner.batch.JobPlan.points`: shard cache, then
    journal, else a point job under ``config.run_policy`` (in-process
    for ``jobs == 1``, a pool otherwise).  Cache and journal hits reach
    ``tracker`` as cached jobs; every computed payload is stored back to
    the cache and the journal.
    """
    cells = config.cells()
    plan = JobPlan(cache, journal)
    keys = plan.points(
        "E-ARENA",
        [cell_point(cell, k=config.k, horizon=config.horizon) for cell in cells],
        config.seed,
        config.scale,
        labels=[cell.name for cell in cells],
    )
    failed, _stats = plan.run(config.jobs, config.run_policy, tracker=tracker)
    scorecard = build_scorecard(
        cells,
        {cell.name: plan.payload(key) for cell, key in zip(cells, keys)},
        k=config.k,
        horizon=config.horizon,
        seed=config.seed,
        scale=config.scale,
    )
    return TournamentReport(
        scorecard=scorecard,
        computed=len(plan.results),
        from_cache=plan.from_cache,
        from_journal=plan.from_journal,
        failed=failed,
    )
