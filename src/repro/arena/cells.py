"""One tournament cell: run a catalog policy on a catalog workload.

A cell is the atomic unit of the arena: deterministic in ``(cell, k,
horizon, seed, scale)`` and nothing else, so its payload can be cached
content-addressed, journaled, recomputed in any worker process, and
digest-verified wherever it resurfaces.  :func:`cell_point` writes a
cell as the ``E-ARENA`` sweep point that does all of this.

Each payload carries the cell's metrics (change count, delays,
delivery), the certified competitive-ratio verdict against the shared
offline oracle, and — for the epoch-driven allocators on fault-free
cells — the fairness-certificate verdict from
:mod:`repro.verify.fairness`.

The ratio is certified on the *aggregate* arrival series (summed over
sessions) against ``ARENA_OFFLINE``: any offline multi-session schedule
induces an aggregate single-link schedule whose change count is at most
its total, so the oracle's DP minimum over aggregate schedules is a
sound lower bound on every offline comparator, and
``online_changes / oracle`` is a certified lower bound on the cell's
true competitive ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.arena.catalog import (
    ARENA_OFFLINE,
    MIN_HORIZON,
    resolve_policy,
    resolve_traffic,
    traffic_seed,
)
from repro.core import MaxMinFairAllocator, PriorityTierAllocator
from repro.errors import ConfigError, SimulationError
from repro.faults import standard_plan
from repro.sim import run_multi_session
from repro.verify import (
    certify_max_min_trace,
    certify_tier_trace,
    min_changes_oracle,
)

#: Version of the payload layout, recorded in every payload.
CELL_SCHEMA = 1


@dataclass(frozen=True, order=True)
class Cell:
    """One grid point: catalog keys only, safe to pickle anywhere."""

    policy: str
    traffic: str
    fault: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.fault <= 1.0:
            raise ConfigError(
                f"fault intensity must be in [0, 1], got {self.fault!r}"
            )

    @property
    def name(self) -> str:
        return f"{self.policy}/{self.traffic}/f{self.fault:g}"


def cell_point(cell: Cell, *, k: int, horizon: int) -> str:
    """The cell as an ``E-ARENA`` sweep point: ``policy|traffic|fault|k|horizon``.

    Seed and scale are part of every sweep point's cache key already;
    the point carries the rest of what the payload depends on.
    """
    return "|".join(map(str, (cell.policy, cell.traffic, cell.fault, k, horizon)))


def run_cell_point(point: str, *, seed: int, scale: float) -> dict:
    """Run the cell that a :func:`cell_point` string names."""
    policy, traffic, fault, k, horizon = point.split("|")
    return run_cell(
        Cell(policy, traffic, float(fault)),
        k=int(k),
        horizon=int(horizon),
        seed=seed,
        scale=scale,
    )


def _mean_delay(histogram: dict[int, float]) -> float:
    bits = math.fsum(histogram.values())
    if bits <= 0.0:
        return 0.0
    return math.fsum(d * b for d, b in sorted(histogram.items())) / bits


def run_cell(
    cell: Cell, *, k: int, horizon: int, seed: int, scale: float
) -> dict:
    """Execute one cell deterministically; return its JSON-safe payload."""
    if horizon < MIN_HORIZON:
        raise ConfigError(
            f"arena horizon must be >= {MIN_HORIZON}, got {horizon!r}"
        )
    traffic = resolve_traffic(cell.traffic)
    sample = traffic.generate(
        k, ARENA_OFFLINE, horizon, traffic_seed(cell.traffic, seed)
    )
    plan = standard_plan(cell.fault, horizon, seed=seed)
    policy = resolve_policy(cell.policy).build(k, ARENA_OFFLINE)
    try:
        trace = run_multi_session(
            policy, sample.arrivals, faults=None if plan.is_null else plan
        )
    except SimulationError:
        # A fault plan can starve the drain (the E-FAULT idiom: a stalled
        # run is an outcome, not a crash).  No trace exists, so the cell
        # makes no ratio statement and ranks behind every finished cell.
        return {
            "schema": CELL_SCHEMA,
            "policy": cell.policy,
            "traffic": cell.traffic,
            "fault": cell.fault,
            "stalled": True,
            "slots": 0,
            "changes": policy.change_count,
            "mean_delay": 0.0,
            "max_delay": -1,
            "delivered_fraction": 0.0,
            "overflow_bits": 0.0,
            "max_total_allocation": 0.0,
            "dropped_bits": 0.0,
            "ratio": {
                "kind": "no-statement",
                "value": None,
                "online_changes": policy.change_count,
                "opt_changes": None,
            },
            "offline_changes_certificate": sample.offline_changes,
            "fairness_certified": None,
        }

    aggregate = sample.arrivals.sum(axis=1)
    oracle = min_changes_oracle(aggregate, ARENA_OFFLINE)
    verdict = oracle.ratio(trace.change_count)

    arrived = trace.total_arrived
    payload = {
        "schema": CELL_SCHEMA,
        "policy": cell.policy,
        "traffic": cell.traffic,
        "fault": cell.fault,
        "stalled": False,
        "slots": trace.slots,
        "changes": trace.change_count,
        "mean_delay": _mean_delay(trace.merged_delay_histogram),
        "max_delay": trace.max_delay,
        "delivered_fraction": (
            trace.total_delivered / arrived if arrived > 0 else 1.0
        ),
        "overflow_bits": float(trace.overflow_allocation.sum()),
        "max_total_allocation": trace.max_total_allocation,
        "dropped_bits": float(trace.dropped.sum()),
        "ratio": {
            "kind": verdict.kind,
            "value": (
                verdict.value if math.isfinite(verdict.value) else None
            ),
            "online_changes": verdict.online_changes,
            "opt_changes": verdict.opt_changes,
        },
        "offline_changes_certificate": sample.offline_changes,
        "fairness_certified": _fairness_certified(cell, policy, trace),
    }
    return payload


def _fairness_certified(cell: Cell, policy, trace) -> bool | None:
    """Fairness-certificate verdict; None when no certificate applies.

    Fault plans detach the recorded allocations from the replayed
    demands (degradation scales effective service), so the structural
    certificates only apply to fault-free cells.
    """
    if cell.fault != 0.0:
        return None
    if isinstance(policy, PriorityTierAllocator):
        report = certify_tier_trace(
            trace,
            capacity=policy.capacity,
            period=policy.period,
            quantum=policy.quantum,
            tiers=list(policy.tiers),
            floors=list(policy.floors),
        )
        return report.certified
    if isinstance(policy, MaxMinFairAllocator):
        report = certify_max_min_trace(
            trace,
            capacity=policy.capacity,
            period=policy.period,
            quantum=policy.quantum,
        )
        return report.certified
    return None
