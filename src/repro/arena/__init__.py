"""Allocator arena: every policy against every workload, ranked.

``repro.arena`` is the tournament layer over the repo's policies: a
fixed catalog of contestants and traffic models (:mod:`~repro.arena.
catalog`), deterministic per-cell execution with certified
competitive-ratio verdicts (:mod:`~repro.arena.cells`), the full grid
run as ``E-ARENA`` sweep points through the batch runner
(:mod:`~repro.arena.tournament`), and
a byte-stable ranked scorecard carrying a digest per cell
(:mod:`~repro.arena.scorecard`).  ``repro arena`` is the CLI entry;
``E-ARENA`` is the registered experiment.
"""

from repro.arena.catalog import (
    ARENA_BANDWIDTH,
    ARENA_DELAY,
    ARENA_OFFLINE,
    FAULTS,
    MIN_HORIZON,
    POLICIES,
    TRAFFIC,
    PolicySpec,
    TrafficSample,
    TrafficSpec,
    resolve_policy,
    resolve_traffic,
    traffic_seed,
)
from repro.arena.cells import (
    CELL_SCHEMA,
    Cell,
    cell_point,
    run_cell,
    run_cell_point,
)
from repro.arena.scorecard import (
    SCORECARD_SCHEMA,
    build_scorecard,
    cell_rank_key,
    render_scorecard,
    scorecard_json,
)
from repro.arena.tournament import (
    TournamentConfig,
    TournamentReport,
    run_tournament,
)

__all__ = [
    "ARENA_BANDWIDTH",
    "ARENA_DELAY",
    "ARENA_OFFLINE",
    "CELL_SCHEMA",
    "Cell",
    "FAULTS",
    "MIN_HORIZON",
    "POLICIES",
    "PolicySpec",
    "SCORECARD_SCHEMA",
    "TRAFFIC",
    "TournamentConfig",
    "TournamentReport",
    "TrafficSample",
    "TrafficSpec",
    "build_scorecard",
    "cell_point",
    "cell_rank_key",
    "render_scorecard",
    "resolve_policy",
    "resolve_traffic",
    "run_cell",
    "run_cell_point",
    "run_tournament",
    "scorecard_json",
    "traffic_seed",
]
