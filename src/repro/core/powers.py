"""Power-of-two quantization of bandwidth allocations.

Figure 3 sets the online bandwidth to "the smallest power of two that is at
least ``low(t)``".  Keeping allocations on a geometric grid is what bounds
the number of changes per stage by ``log2(B_A)``.  This module provides the
default integer power-of-two quantizer plus the geometric and clamped
variants the ablation experiments and Theorem 7 use.
"""

from __future__ import annotations

import math
from typing import Protocol

from repro.errors import ConfigError


def next_power_of_two(x: float) -> float:
    """Smallest ``2**j`` with integer ``j >= 0`` that is ``>= x``.

    Returns ``0.0`` for ``x <= 0`` (nothing pending, nothing allocated) and
    never less than ``1.0`` for positive inputs: a single bit is the atomic
    demand unit of the paper's model.
    """
    if x <= 0:
        return 0.0
    if x <= 1.0:
        return 1.0
    j = math.ceil(math.log2(x))
    # Guard against floating point drift in log2 near exact powers.
    while 2.0 ** (j - 1) >= x:
        j -= 1
    while 2.0**j < x:
        j += 1
    return 2.0**j


class Quantizer(Protocol):
    """Maps a raw bandwidth demand to an allocatable level."""

    def __call__(self, x: float) -> float:
        """Return the smallest allocatable level ``>= x`` (0 for ``x <= 0``)."""
        ...

    def levels(self, max_bandwidth: float) -> int:
        """Number of distinct nonzero levels up to ``max_bandwidth``.

        This is the per-stage change bound of Lemma 1 for this quantizer.
        """
        ...


class PowerOfTwoQuantizer:
    """The paper's quantizer: smallest integer power of two ``>= x``."""

    def __call__(self, x: float) -> float:
        return next_power_of_two(x)

    def levels(self, max_bandwidth: float) -> int:
        if max_bandwidth < 1:
            return 0
        return int(math.floor(math.log2(max_bandwidth))) + 1

    def __repr__(self) -> str:
        return "PowerOfTwoQuantizer()"


class GeometricQuantizer:
    """Quantize to ``base**j`` for integer ``j >= 0``; ablation knob.

    A larger base means fewer levels (fewer changes per stage) but a looser
    fit to ``low(t)`` (worse utilization margin); ``base=2`` recovers the
    paper's algorithm.
    """

    def __init__(self, base: float):
        if base <= 1:
            raise ConfigError(f"base must exceed 1, got {base!r}")
        self.base = float(base)

    def __call__(self, x: float) -> float:
        if x <= 0:
            return 0.0
        if x <= 1.0:
            return 1.0
        j = math.ceil(math.log(x, self.base))
        while self.base ** (j - 1) >= x:
            j -= 1
        while self.base**j < x:
            j += 1
        return self.base**j

    def levels(self, max_bandwidth: float) -> int:
        if max_bandwidth < 1:
            return 0
        return int(math.floor(math.log(max_bandwidth, self.base))) + 1

    def __repr__(self) -> str:
        return f"GeometricQuantizer(base={self.base})"


class ClampedQuantizer:
    """Clamp another quantizer's output at ``cap`` (``cap`` becomes a
    fixed point, so any ``max_bandwidth == cap`` is on the grid).

    Used by the quantizer-base ablation: a coarse geometric grid whose top
    rung would undershoot ``B_A`` still gets the full bandwidth when the
    envelope demands it.
    """

    def __init__(self, inner: Quantizer, cap: float):
        if cap <= 0:
            raise ConfigError(f"cap must be > 0, got {cap!r}")
        self.inner = inner
        self.cap = float(cap)

    def __call__(self, x: float) -> float:
        if x <= 0:
            return 0.0
        if x >= self.cap:
            return self.cap
        return min(self.inner(x), self.cap)

    def levels(self, max_bandwidth: float) -> int:
        bounded = min(max_bandwidth, self.cap)
        inner_levels = self.inner.levels(bounded)
        # The cap itself may add one level beyond the inner grid.
        if self.inner(bounded) != bounded:
            inner_levels += 1
        return inner_levels

    def __repr__(self) -> str:
        return f"ClampedQuantizer({self.inner!r}, cap={self.cap})"
