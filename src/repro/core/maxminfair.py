"""Water-filling max-min fair allocation (arena policy family 1).

Classic max-min fairness over per-session demands: raise one shared water
level until the capacity is exhausted, capping each session at its own
demand.  Sessions demanding less than the level are *saturated* (they get
exactly their demand); every unsaturated session gets the level itself.
The resulting vector is feasible, fully utilizing (whenever total demand
exceeds capacity), and Pareto-unimprovable: no session can receive more
without a session whose allocation is no larger receiving less.

Change-count accounting needs the paper's level-quantization: raw demand
estimates jitter at float granularity, and an allocator that chases them
re-writes every link every epoch.  Demands are therefore rounded *up* to
a quantum grid first (:func:`quantize_up`) — the allocation becomes a
function of the quantized demand vector, which moves only when a demand
crosses a quantum boundary, so equal traffic yields equal allocations and
zero recorded changes.  The water level itself stays exact (computed from
the sorted quantized demands), which is what preserves the max-min
optimality properties the certificates and property tests check.

All decisions happen at fixed epochs via
:class:`~repro.core.epoch.EpochDrivenMultiSession`, so the engine's
session-major slices advance it between epochs (:mod:`repro.sim.vector`).
"""

from __future__ import annotations

import math

from repro.core.epoch import EpochDrivenMultiSession
from repro.errors import ConfigError

#: Relative tolerance absorbing float dust when a demand sits exactly on a
#: quantum boundary: ``m * quantum`` (computed in floats) must quantize to
#: ``m`` quanta, not ``m + 1``.
_GRID_RTOL = 1e-12


def quantize_up(value: float, quantum: float) -> float:
    """Round ``value`` up to the quantum grid (identity when quantum <= 0).

    Any strictly positive value yields at least one quantum — a backlogged
    session's dust-sized demand still earns a positive allocation, which
    is what guarantees drain termination for the epoch-driven policies.
    """
    if quantum <= 0:
        return max(0.0, float(value))
    if value <= 0:
        return 0.0
    steps = math.ceil((value / quantum) * (1.0 - _GRID_RTOL))
    return max(1, steps) * quantum


def water_level(demands: list[float], capacity: float) -> float:
    """Exact max-min water level for ``demands`` under total ``capacity``.

    The largest ``L`` with ``sum(min(d_i, L)) <= capacity``;  ``inf`` when
    total demand fits (every session saturates).  Computed from the sorted
    demand values, so the level — and hence ``min(d_i, L)`` — is invariant
    under any permutation of the sessions, bit-for-bit.
    """
    values = sorted(demands)
    consumed = 0.0
    for index, value in enumerate(values):
        active = len(values) - index
        level = (capacity - consumed) / active
        if value >= level:
            return max(0.0, level)
        consumed += value
    return float("inf")


def water_fill(
    demands: list[float], capacity: float, quantum: float = 0.0
) -> list[float]:
    """Max-min fair allocations for ``demands`` under ``capacity``.

    Demands are quantized up to the ``quantum`` grid, then capped at the
    shared water level: ``alloc_i = min(quantize_up(d_i), L)``.

    Guarantees (the property-test contract):

    * **feasible** — ``sum(alloc) <= capacity`` (up to float rounding) and
      ``0 <= alloc_i <= quantize_up(d_i)``;
    * **fully utilizing** — when ``sum(alloc) < capacity`` every session
      is saturated (``alloc_i == quantize_up(d_i)``);
    * **max-min / Pareto-unimprovable** — all unsaturated sessions share
      the same level, and every saturated session's demand is at or below
      it, so no session can gain without one at an equal-or-lower
      allocation losing;
    * **permutation-invariant** — permuting the demand vector permutes
      the allocation vector, exactly.
    """
    if capacity < 0:
        raise ConfigError(f"capacity must be >= 0, got {capacity!r}")
    quantized = [quantize_up(d, quantum) for d in demands]
    level = water_level(quantized, capacity)
    return [min(d, level) for d in quantized]


class MaxMinFairAllocator(EpochDrivenMultiSession):
    """Epoch-driven water-filling max-min fair multi-session allocator.

    Args:
        k: number of sessions.
        capacity: total bandwidth shared across sessions.
        period: epoch length in slots.
        quantum: demand-quantization grid (default ``capacity / (4k)``);
            pass 0 to disable quantization (every epoch then re-decides on
            raw float demands — change counts become per-epoch noise,
            which is exactly what the quantization exists to prevent).
        fifo: serve each session FIFO with its pooled bandwidth.
    """

    def __init__(
        self,
        k: int,
        capacity: float,
        period: int,
        quantum: float | None = None,
        fifo: bool = False,
    ):
        super().__init__(k=k, capacity=capacity, period=period, fifo=fifo)
        if quantum is None:
            quantum = self.capacity / (4.0 * self.k)
        if quantum < 0:
            raise ConfigError(f"quantum must be >= 0, got {quantum!r}")
        self.quantum = float(quantum)

    def _allocations(self, demands: list[float]) -> list[float]:
        return water_fill(demands, self.capacity, self.quantum)
