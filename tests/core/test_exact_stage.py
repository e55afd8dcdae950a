"""Exact-arithmetic reference for the stage rule, against the kernel.

An independent :class:`fractions.Fraction` replay of Section 2's stage rule
— ``low(t)`` and ``high(t)`` as exact rationals, the ladder as the exact
smallest grid point at or above the target — for Figure 3, Theorem 7's
coarse-then-fine ladder, the combined controller's global stages and the
stage certificate.  Every production path decides on the multiply-form
:class:`~repro.core.stagekernel.StageKernel` instead.

With integer arrivals, integer rungs and ``U_O * W`` a power of two, every
kernel product and difference is exact, so the two must agree slot for
slot: any disagreement here is a kernel bug, not rounding.  The reference
takes the parameters as the policies hold them: ``U_O * W`` is the float
product the window sum is divided by, and Theorem 7's coarse base is the
float ``max(2, 1/U_O)`` — both exact integers or powers of two in every
regime drawn here.  Coarse bases 3, 5, 6, 10 and 12 are off the
power-of-two grid, which is what exercises Theorem 7's switch of ladders
when a stage matures.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.combined import CombinedMultiSession
from repro.core.modified_single import ModifiedSingleSessionOnline
from repro.core.offline import stage_certificate
from repro.core.single_session import SingleSessionOnline
from repro.params import OfflineConstraints
from repro.sim.engine import run_multi_session, run_single_session
from tests.strategies import FUZZ_EXAMPLES

_SETTINGS = settings(max_examples=FUZZ_EXAMPLES, deadline=None)


# -- the exact reference -----------------------------------------------------


class ExactStage:
    """``low``/``high`` of one stage as exact rationals, by brute force."""

    def __init__(self, offline: OfflineConstraints):
        self.delay = offline.delay
        self.window = offline.window
        self.uw = Fraction(offline.utilization * offline.window)
        self.cap = Fraction(offline.bandwidth)
        self.sums = [Fraction(0)]
        self.low = Fraction(0)
        self.high = self.cap

    @property
    def slots(self) -> int:
        return len(self.sums) - 1

    def push(self, bits: int) -> None:
        sums = self.sums
        sums.append(sums[-1] + bits)
        r = self.slots - 1
        for u in range(r + 1):
            self.low = max(self.low, (sums[r + 1] - sums[u]) / (r + self.delay + 1 - u))
        if self.slots >= self.window:
            window_sum = sums[-1] - sums[-1 - self.window]
            self.high = min(self.high, window_sum / self.uw)

    @property
    def ended(self) -> bool:
        return self.high < self.low


def ceil_power(x: Fraction, base: Fraction = Fraction(2)) -> Fraction:
    """Smallest ``base**j`` (``j >= 0``) at or above ``x``; 0 for ``x <= 0``."""
    if x <= 0:
        return Fraction(0)
    level = Fraction(1)
    while level < x:
        level *= base
    return level


def exact_single(
    arrivals: list[int],
    offline: OfflineConstraints,
    headroom: int = 1,
    early_base: Fraction | None = None,
) -> list[Fraction]:
    """Per-slot allocations of Figure 3 (Theorem 7 with ``early_base``),
    including the drain tail, with an exact fluid queue."""
    cap = Fraction(offline.bandwidth)

    def target(stage: ExactStage) -> Fraction:
        if early_base is not None and stage.slots <= offline.window:
            return min(cap, ceil_power(stage.low, early_base))
        return min(cap, ceil_power(headroom * stage.low))

    allocations: list[Fraction] = []
    backlog = Fraction(0)
    stage = None
    allocation = Fraction(0)
    t = 0
    while t < len(arrivals) or backlog > 0:
        bits = arrivals[t] if t < len(arrivals) else 0
        if stage is None and backlog == 0:
            stage = ExactStage(offline)
            stage.push(bits)
            allocation = target(stage)
        elif stage is not None:
            stage.push(bits)
            if stage.ended:
                stage = None
                allocation = cap
            else:
                allocation = max(allocation, target(stage))
        else:
            allocation = cap
        backlog = max(Fraction(0), backlog + bits - allocation)
        allocations.append(allocation)
        t += 1
    return allocations


def exact_certificate(arrivals: list[int], offline: OfflineConstraints) -> tuple:
    stage = ExactStage(offline)
    intervals = []
    start = 0
    for t, bits in enumerate(arrivals):
        stage.push(bits)
        if stage.ended:
            intervals.append((start, t))
            stage = ExactStage(offline)
            start = t + 1
    return tuple(intervals)


def exact_global(totals: list[int], offline: OfflineConstraints) -> tuple[list, list]:
    """The combined controller's ``B_glob`` moves and GLOBAL RESET slots.

    The run's first slot is end-tested; a reset opens the new stage with
    its own slot, sets ``B_glob = max(1, pow2(low))`` without capping at
    ``B_O`` and does not end-test that slot.
    """
    stage = ExactStage(offline)
    b_glob = Fraction(1)
    moves = [(0, b_glob)]
    resets = []
    for t, bits in enumerate(totals):
        stage.push(bits)
        if stage.ended:
            resets.append(t)
            stage = ExactStage(offline)
            stage.push(bits)
            target = max(Fraction(1), ceil_power(stage.low))
        else:
            target = max(Fraction(1), ceil_power(stage.low))
            if target <= b_glob:
                continue
        if target != b_glob:
            moves.append((t, target))
        b_glob = target
    return moves, resets


# -- strategies --------------------------------------------------------------


#: ``(U_O, W)`` with ``U_O * W`` a power of two and ``1 / U_O`` an integer.
EXACT_WINDOWS = [
    (u, w)
    for u in (1 / 2, 1 / 3, 1 / 4, 1 / 5, 1 / 6, 1 / 8, 1 / 10, 1 / 12, 1 / 16)
    for w in range(2, 21)
    if math.frexp(u * w)[0] == 0.5 and (1 / u).is_integer()
]


@st.composite
def exact_regimes(draw):
    """Constraints where every kernel float is exact: a power-of-two
    ``B`` and ``U_O * W``."""
    utilization, window = draw(st.sampled_from(EXACT_WINDOWS))
    delay = draw(st.integers(1, min(4, window)))
    bandwidth = float(2 ** draw(st.integers(2, 6)))
    return OfflineConstraints(bandwidth, delay, utilization, window)


def integer_streams(max_slots: int = 60, max_bits: int = 200):
    return st.lists(
        st.one_of(st.integers(0, 12), st.integers(0, max_bits)),
        min_size=1,
        max_size=max_slots,
    )


def _as_fractions(values) -> list[Fraction]:
    return [Fraction(float(v)) for v in values]


# -- the comparisons ---------------------------------------------------------


class TestExactReference:
    def test_reference_sees_a_stage_end(self):
        offline = OfflineConstraints(16.0, 2, 0.5, 4)
        arrivals = [1] * 8 + [300]
        assert exact_certificate(arrivals, offline) == ((0, 8),)
        allocations = exact_single(arrivals, offline)
        assert allocations[8] == 16

    def test_reference_climbs_the_ladder(self):
        offline = OfflineConstraints(64.0, 1, 0.25, 8)
        # low: 2/2 = 1, then max(8/3, 6/2) = 3 -> rungs 1, 4.
        assert exact_single([2, 6], offline)[:2] == [1, 4]


class TestKernelMatchesExact:
    def test_thm7_switches_ladders_when_the_stage_matures(self):
        """low(t) = 3 sits on the coarse base-3 rung while the stage is
        young; at maturity the fine target pow2(3) = 4 exceeds it."""
        offline = OfflineConstraints(64.0, 1, 1 / 3, 6)
        arrivals = [6] + [3] * 10
        want = exact_single(arrivals, offline, early_base=Fraction(3))
        assert want[:7] == [3] * 6 + [4]
        policy = ModifiedSingleSessionOnline(64.0, 1, 1 / 3, 6)
        trace = run_single_session(policy, np.asarray(arrivals, dtype=float))
        assert _as_fractions(trace.allocation) == want

    @_SETTINGS
    @given(offline=exact_regimes(), arrivals=integer_streams(), headroom=st.sampled_from([1, 2]))
    def test_fig3(self, offline, arrivals, headroom):
        policy = SingleSessionOnline(
            offline.bandwidth, offline.delay, offline.utilization, offline.window,
            headroom=float(headroom),
        )
        trace = run_single_session(policy, np.asarray(arrivals, dtype=float))
        want = exact_single(arrivals, offline, headroom=headroom)
        assert _as_fractions(trace.allocation) == want

    @_SETTINGS
    @given(offline=exact_regimes(), arrivals=integer_streams())
    def test_thm7(self, offline, arrivals):
        policy = ModifiedSingleSessionOnline(
            offline.bandwidth, offline.delay, offline.utilization, offline.window
        )
        trace = run_single_session(policy, np.asarray(arrivals, dtype=float))
        base = Fraction(max(2.0, 1.0 / offline.utilization))
        want = exact_single(arrivals, offline, early_base=base)
        assert _as_fractions(trace.allocation) == want

    @_SETTINGS
    @given(offline=exact_regimes(), arrivals=integer_streams(max_slots=120))
    def test_stage_certificate(self, offline, arrivals):
        got = stage_certificate(arrivals, offline).intervals
        assert got == exact_certificate(arrivals, offline)

    @_SETTINGS
    @given(
        offline=exact_regimes(),
        columns=st.lists(integer_streams(max_slots=40, max_bits=120), min_size=2, max_size=3),
    )
    def test_combined_global_controller(self, offline, columns):
        horizon = min(len(c) for c in columns)
        arrivals = np.asarray([c[:horizon] for c in columns], dtype=float).T
        policy = CombinedMultiSession(
            arrivals.shape[1], offline.bandwidth, offline.delay,
            offline.utilization, offline.window,
        )
        trace = run_multi_session(policy, arrivals)
        # The controller keeps deciding through the drain tail (zero arrivals).
        totals = [int(a) for a in arrivals.sum(axis=1)]
        totals += [0] * (len(trace.delivered) - horizon)
        moves, resets = exact_global(totals, offline)
        got = [(c.t, Fraction(c.new)) for c in policy.global_link.changes]
        assert got == moves
        assert policy.resets == resets
