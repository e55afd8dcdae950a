"""Exact offline optima for tiny instances, by exhaustive enumeration.

The stage-certificate lower bounds (:mod:`repro.core.offline`) and the
generator certificates are both *bounds* on the offline optimum.  For small
horizons we can compute the true optimum over a bandwidth grid by
enumerating every piecewise-constant schedule with up to ``max_changes``
interior switches and checking feasibility exactly.  The test suite uses
this to validate certificate soundness:

    stage_lower_bound(stream)  <=  OPT(stream)  <=  profile_changes(stream)

Complexity is ``C(T-1, c) · levels^(c+1)`` per change budget ``c`` — keep
``T`` under ~20 and the grid small.
"""

from __future__ import annotations

from itertools import combinations, product

import numpy as np

from repro.analysis.feasibility import profile_serves
from repro.errors import ConfigError
from repro.params import OfflineConstraints


def iter_schedules(
    horizon: int, levels: list[float], changes: int
):
    """Yield every piecewise-constant schedule with exactly ``changes``
    interior switches over the level grid (adjacent pieces differ)."""
    if horizon < 1:
        raise ConfigError(f"horizon must be >= 1, got {horizon!r}")
    if changes == 0:
        for level in levels:
            yield np.full(horizon, level, dtype=float)
        return
    for cuts in combinations(range(1, horizon), changes):
        boundaries = [0, *cuts, horizon]
        for assignment in product(levels, repeat=changes + 1):
            if any(
                assignment[i] == assignment[i + 1] for i in range(changes)
            ):
                continue
            schedule = np.empty(horizon, dtype=float)
            for piece, level in enumerate(assignment):
                schedule[boundaries[piece] : boundaries[piece + 1]] = level
            yield schedule


def min_changes_bruteforce(
    arrivals: np.ndarray,
    offline: OfflineConstraints,
    levels: list[float] | None = None,
    max_changes: int = 3,
) -> int | None:
    """Fewest interior switches of any feasible grid schedule.

    Returns ``None`` when no schedule with ``<= max_changes`` switches on
    the grid is feasible.  With the default grid (powers of two up to
    ``B_O``) the result upper-bounds the unconstrained optimum and, because
    richer grids only help, certificate *lower* bounds must stay below it.
    """
    from repro.verify.oracle import default_levels

    arrivals = np.asarray(arrivals, dtype=float)
    horizon = len(arrivals)
    if horizon == 0:
        return 0
    if levels is None:
        levels = default_levels(offline.bandwidth)
    levels = [float(x) for x in levels if 0 < x <= offline.bandwidth * (1 + 1e-12)]
    if not levels:
        raise ConfigError("empty level grid")
    for changes in range(0, max_changes + 1):
        for schedule in iter_schedules(horizon, levels, changes):
            if profile_serves(arrivals, schedule, offline):
                return changes
    return None


def _iter_vector_assignments(
    levels: list[float], k: int, budget: float
):
    """Per-session level vectors with ``sum <= budget`` (with tolerance)."""
    for assignment in product(levels, repeat=k):
        if sum(assignment) <= budget * (1 + 1e-12):
            yield assignment


def min_changes_bruteforce_multi(
    arrivals: np.ndarray,
    offline_bandwidth: float,
    offline_delay: int,
    levels: list[float] | None = None,
    max_changes: int = 2,
) -> int | None:
    """Multi-session exact grid optimum for tiny instances.

    A schedule is a per-session piecewise-constant assignment with
    ``Σ_i b_i(t) <= B_O`` at all times; a *change* is any slot where any
    session's level moves (simultaneous moves at one slot count once per
    session, matching the online accounting).  Exhaustive over change
    slots and level vectors — keep ``T``, ``k`` and the grid tiny.
    """
    from repro.analysis.feasibility import profiles_serve

    array = np.asarray(arrivals, dtype=float)
    if array.ndim != 2:
        raise ConfigError(f"arrivals must be (T, k), got shape {array.shape}")
    horizon, k = array.shape
    if horizon == 0:
        return 0
    if levels is None:
        levels = []
        level = offline_bandwidth
        while level >= offline_bandwidth / 8:
            levels.append(level / k)
            level /= 2.0
        levels.append(0.0)
    vectors = list(_iter_vector_assignments(levels, k, offline_bandwidth))
    if not vectors:
        raise ConfigError("no level vector fits the bandwidth budget")

    def changed(a, b) -> int:
        return sum(1 for x, y in zip(a, b) if abs(x - y) > 1e-12)

    best: int | None = None
    for cuts_count in range(0, max_changes + 1):
        if best is not None:
            return best
        for cuts in combinations(range(1, horizon), cuts_count):
            boundaries = [0, *cuts, horizon]
            for pieces in product(vectors, repeat=cuts_count + 1):
                change_total = sum(
                    changed(pieces[i], pieces[i + 1]) for i in range(cuts_count)
                )
                if change_total == 0 and cuts_count > 0:
                    continue
                if change_total > max_changes:
                    continue
                if best is not None and change_total >= best:
                    continue
                profiles = np.empty((horizon, k), dtype=float)
                for piece_index, vector in enumerate(pieces):
                    start = boundaries[piece_index]
                    end = boundaries[piece_index + 1]
                    profiles[start:end, :] = vector
                if profiles_serve(array, profiles, offline_bandwidth, offline_delay):
                    if best is None or change_total < best:
                        best = change_total
                        if best == 0:
                            return 0
    return best
