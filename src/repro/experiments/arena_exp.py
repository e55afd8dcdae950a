"""E-ARENA — the allocator tournament as a registered experiment.

Each sweep point is one cell of the arena grid, written by
:func:`~repro.arena.cells.cell_point` as ``policy|traffic|fault|k|horizon``.
``repro arena`` runs its cells as the same points, so the two share
shard-cache entries and journal keys.  Assembly rebuilds the ranked
scorecard from the cell payloads and re-checks the tournament's
structural contracts:

* assembly is deterministic — building the scorecard twice from the same
  payloads yields identical canonical bytes;
* every cell row carries the sha256 digest of its payload;
* the ranked cell order never lets a degenerate verdict (``trivial`` /
  ``unbounded`` / ``no-statement``) outrank a finite one;
* the epoch-driven allocators' fault-free cells pass their fairness
  certificates (water-level optimality / tier floors);
* the paper's phased algorithm beats the store-and-forward strawman on
  change count over the certified traffic models.
"""

from __future__ import annotations

from repro.arena import (
    Cell,
    build_scorecard,
    cell_point,
    run_cell_point,
    scorecard_json,
)
from repro.arena.catalog import MIN_HORIZON
from repro.experiments.common import ExperimentResult, fmt, scaled
from repro.experiments.registry import register_sweep

_HEADERS = [
    "cell",
    "changes",
    "mean delay",
    "max delay",
    "delivered",
    "verdict",
    "fairness",
]

_K = 4

_KIND_ORDER = {"finite": 0, "trivial": 1, "unbounded": 2, "no-statement": 3}


def _grid(scale: float) -> tuple[tuple[str, ...], tuple[str, ...], tuple[float, ...]]:
    if scale < 0.5:
        return (
            ("phased", "max-min", "priority-tier"),
            ("smooth", "uniform"),
            (0.0, 0.4),
        )
    return (
        ("phased", "equal-split", "store-forward", "max-min", "priority-tier"),
        ("smooth", "bursty", "uniform"),
        (0.0, 0.4),
    )


def _horizon(scale: float) -> int:
    return scaled(256, scale, minimum=MIN_HORIZON)


def _points(seed: int = 0, scale: float = 1.0) -> list[str]:
    policies, traffic, faults = _grid(scale)
    return [
        cell_point(Cell(p, t, f), k=_K, horizon=_horizon(scale))
        for p in policies
        for t in traffic
        for f in faults
    ]


def _run_point(
    point: str, index: int, seed: int = 0, scale: float = 1.0
) -> dict:
    return run_cell_point(point, seed=seed, scale=scale)


def _cells(payloads: list[dict]) -> list[Cell]:
    return [
        Cell(policy=p["policy"], traffic=p["traffic"], fault=p["fault"])
        for p in payloads
    ]


def _assemble(
    payloads: list[dict], seed: int = 0, scale: float = 1.0
) -> ExperimentResult:
    cells = _cells(payloads)
    by_name = {c.name: p for c, p in zip(cells, payloads)}
    kwargs = dict(k=_K, horizon=_horizon(scale), seed=seed, scale=scale)
    scorecard = build_scorecard(cells, by_name, **kwargs)

    rows = []
    for payload in payloads:
        verdict = payload["ratio"]["kind"]
        if payload["ratio"]["value"] is not None and verdict == "finite":
            verdict = f"finite {payload['ratio']['value']:.2f}"
        fairness = payload["fairness_certified"]
        rows.append(
            [
                f"{payload['policy']}/{payload['traffic']}"
                f"/f{payload['fault']:g}",
                str(payload["changes"]),
                fmt(payload["mean_delay"]),
                str(payload["max_delay"]),
                f"{payload['delivered_fraction']:.0%}",
                verdict,
                "-" if fairness is None else ("yes" if fairness else "NO"),
            ]
        )

    result = ExperimentResult(
        experiment_id="E-ARENA",
        title="Allocator arena — every policy on every workload, ranked",
        headers=_HEADERS,
        rows=rows,
        preamble=(
            "Tournament cells: each policy runs the same seeded workloads "
            "under the same fault plans; ratios are certified against the "
            "shared aggregate offline oracle."
        ),
    )

    result.check(
        "scorecard assembly is deterministic",
        scorecard_json(scorecard)
        == scorecard_json(build_scorecard(cells, by_name, **kwargs)),
        "two assemblies from the same payloads serialize identically",
    )
    result.check(
        "every ranked cell carries a payload digest",
        all(len(row["digest"]) == 64 for row in scorecard["cells"])
        and not scorecard["missing"],
        f"{len(scorecard['cells'])} cells, {len(scorecard['missing'])} missing",
    )

    order = [
        _KIND_ORDER[by_name[name]["ratio"]["kind"]]
        for name in scorecard["cell_order"]
    ]
    result.check(
        "degenerate verdicts never outrank finite cells",
        order == sorted(order),
        "ranked cell order is monotone in verdict class "
        "(finite < trivial < unbounded < no-statement)",
    )

    fairness_cells = [
        p
        for p in payloads
        if p["policy"] in ("max-min", "priority-tier") and p["fault"] == 0.0
    ]
    result.check(
        "fault-free epoch allocators pass their fairness certificates",
        bool(fairness_cells)
        and all(p["fairness_certified"] is True for p in fairness_cells),
        f"{len(fairness_cells)} certified cells "
        "(water-level optimality / tier floors + strict priority)",
    )

    certified = ("smooth", "bursty")
    phased = [
        p
        for p in payloads
        if p["policy"] == "phased"
        and p["traffic"] in certified
        and not p["stalled"]
    ]
    strawman = [
        p
        for p in payloads
        if p["policy"] == "store-forward"
        and p["traffic"] in certified
        and not p["stalled"]
    ]
    if strawman:
        result.check(
            "phased beats store-and-forward on change count",
            sum(p["changes"] for p in phased)
            < sum(p["changes"] for p in strawman),
            f"{sum(p['changes'] for p in phased)} vs "
            f"{sum(p['changes'] for p in strawman)} total changes on "
            "certified traffic",
        )

    winner = scorecard["ranking"][0]
    result.notes.append(
        f"tournament winner: {winner['policy']} "
        f"(worst verdict {winner['worst_kind']}, "
        f"{winner['total_changes']} total changes)."
    )
    stalled = [c.name for c, p in zip(cells, payloads) if p["stalled"]]
    if stalled:
        result.notes.append(
            "stalled cells (fault plan starved the drain): "
            + ", ".join(stalled)
        )
    return result


run = register_sweep(
    "E-ARENA",
    "Allocator arena: the policy tournament with certified ranking",
    points=_points,
    run_point=_run_point,
    assemble=_assemble,
)
