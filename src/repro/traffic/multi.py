"""Certificate-backed multi-session workloads (Section 3 scenarios).

The offline adversary of the multi-session case assigns each session a
piecewise-constant bandwidth with ``Σ_i b_i(t) <= B_O`` and serves every
session within ``D_O``.  As in the single-session generator we draw that
assignment first — session weights re-drawn per segment, so demand *shifts
between sessions* over time, which is exactly what forces offline changes —
and then synthesize arrivals each session's profile provably serves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError, FeasibilityError
from repro.traffic.base import make_rng
from repro.traffic.feasible import _release_early, profile_switch_count


@dataclass(frozen=True)
class MultiSessionWorkload:
    """Arrivals ``(T, k)`` plus the per-session certificate profiles."""

    arrivals: np.ndarray
    profiles: np.ndarray
    offline_bandwidth: float
    offline_delay: int

    @property
    def horizon(self) -> int:
        return self.arrivals.shape[0]

    @property
    def k(self) -> int:
        return self.arrivals.shape[1]

    @property
    def profile_changes(self) -> int:
        """Total interior switches across all per-session profiles
        (the offline-change certificate upper bound)."""
        return sum(
            profile_switch_count(self.profiles[:, i]) for i in range(self.k)
        )

    def per_session_changes(self) -> list[int]:
        return [profile_switch_count(self.profiles[:, i]) for i in range(self.k)]


def generate_multi_feasible(
    k: int,
    offline_bandwidth: float,
    offline_delay: int,
    horizon: int,
    segments: int = 6,
    seed: int | np.random.Generator | None = None,
    concentration: float = 1.0,
    burstiness: str = "smooth",
) -> MultiSessionWorkload:
    """Generate a certified ``(B_O, D_O)``-feasible multi-session workload.

    The offline assignment hands out 90% of ``B_O`` and is re-drawn in
    segments of at least ``4 * D_O`` slots; each slot serves a fill factor
    uniform in ``[0.8, 1]`` of each session's profile.

    Args:
        k: number of sessions.
        offline_bandwidth: ``B_O`` shared by the offline assignment.
        offline_delay: ``D_O``.
        horizon: slots.
        segments: how many times the session weight vector is re-drawn;
            the certificate change count grows with ``segments * k``.
        seed: RNG seed or Generator.
        concentration: Dirichlet concentration of the session weights
            (< 1 = skewed toward few sessions, > 1 = near-equal).
        burstiness: arrival release mode (see
            :func:`repro.traffic.feasible._release_early`).
    """
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k!r}")
    if segments < 1:
        raise ConfigError(f"segments must be >= 1, got {segments!r}")
    if concentration <= 0:
        raise ConfigError(f"concentration must be > 0, got {concentration!r}")
    if offline_delay < 1:
        raise ConfigError(f"offline_delay must be >= 1 slot, got {offline_delay!r}")
    from repro.analysis.feasibility import check_multi_against_profiles, profiles_serve

    rng = make_rng(seed)
    floor = 4 * offline_delay
    if horizon < segments * floor:
        raise ConfigError(
            f"horizon {horizon} too short for {segments} segments of "
            f">= {floor} slots"
        )

    slack = horizon - segments * floor
    if segments > 1:
        cuts = np.sort(rng.integers(0, slack + 1, size=segments - 1))
        extras = np.diff(np.concatenate([[0], cuts, [slack]]))
    else:
        extras = np.asarray([slack])
    lengths = [floor + int(extra) for extra in extras]

    budget = 0.9 * offline_bandwidth
    profiles = np.zeros((horizon, k), dtype=float)
    position = 0
    for length in lengths:
        weights = rng.dirichlet(np.full(k, concentration))
        profiles[position : position + length, :] = budget * weights
        position += length

    arrivals = np.zeros_like(profiles)
    for i in range(k):
        fills = rng.uniform(0.8, 1.0, size=horizon)
        served = fills * profiles[:, i]
        arrivals[:, i] = _release_early(served, offline_delay, burstiness, rng)

    if not profiles_serve(arrivals, profiles, offline_bandwidth, offline_delay):
        report = check_multi_against_profiles(
            arrivals, profiles, offline_bandwidth, offline_delay
        )
        raise FeasibilityError(
            f"generated multi-session workload failed verification: "
            f"{report.detail}"
        )
    return MultiSessionWorkload(
        arrivals=arrivals,
        profiles=profiles,
        offline_bandwidth=float(offline_bandwidth),
        offline_delay=int(offline_delay),
    )


def independent_processes_workload(
    processes: list,
    horizon: int,
    seed: int | np.random.Generator | None = None,
) -> np.ndarray:
    """Materialize ``k`` independent arrival processes into ``(T, k)``.

    No feasibility certificate — useful for stress tests and baselines.
    """
    rng = make_rng(seed)
    columns = [process.materialize(horizon, rng) for process in processes]
    return np.stack(columns, axis=1)
