"""Phase slices are invisible: bit-identity against ``vector=False``.

A phase slice runs the policy's ``begin_slot`` at each boundary inline and
replays every session's queues up to the next one with
:meth:`SessionChannels.replay <repro.network.channel.SessionChannels.replay>`,
so it crosses phase and epoch ends.  Every recorded float must equal the
all-scalar run's: every trace column, the per-session delay histograms,
local changes, stage starts and resets.  The inputs below keep queues
backlogged, force regular bumps and RESETs, cut ``step`` budgets before,
on and after boundaries, put fault slots on and next to boundaries, and
leave a drain tail; hypothesis budgets follow ``REPRO_FUZZ_EXAMPLES``.
"""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.maxminfair import MaxMinFairAllocator
from repro.core.phased import PhasedMultiSession
from repro.core.prioritytier import PriorityTierAllocator
from repro.faults import FaultPlan, LinkDegradation, standard_plan
from repro.sim.engine import run_multi_session
from repro.sim.vector import MultiEngineState, multi_vector_capable
from repro.traffic.multi import generate_multi_feasible
from tests.strategies import FUZZ_EXAMPLES, seeds

_SETTINGS = settings(max_examples=FUZZ_EXAMPLES, deadline=None)

_COLUMNS = (
    "arrivals", "regular_allocation", "overflow_allocation", "delivered",
    "backlog", "extra_allocation", "requested_total", "dropped",
)

D_O = 8


def _assert_identical(first, second):
    for name in _COLUMNS:
        np.testing.assert_array_equal(getattr(first, name), getattr(second, name), err_msg=name)
    assert first.delay_histograms == second.delay_histograms
    assert first.local_changes == second.local_changes
    assert first.stage_starts == second.stage_starts
    assert first.resets == second.resets
    assert first.horizon == second.horizon


def _phased(k, fifo=False):
    return lambda: PhasedMultiSession(k, offline_bandwidth=64.0, offline_delay=D_O, fifo=fifo)


def _max_min(k=3, fifo=False):
    return lambda: MaxMinFairAllocator(k, capacity=12.0, period=4, quantum=0.25, fifo=fifo)


def _priority(k=3, fifo=False):
    return lambda: PriorityTierAllocator(
        k,
        capacity=12.0,
        period=4,
        tiers=[0] * (k - k // 2) + [1] * (k // 2),
        floors=[2.0, 1.0],
        quantum=0.25,
        fifo=fifo,
    )


def _blocks(k, horizon, seed):
    """Certified bursty traffic: queues stay backlogged across phases."""
    return generate_multi_feasible(
        k,
        offline_bandwidth=64.0,
        offline_delay=D_O,
        horizon=horizon,
        seed=seed,
        burstiness="blocks",
        concentration=0.7,
    ).arrivals


def _overload(k, horizon, seed):
    """Fractional Poisson bursts well above B_O: regular bumps and RESETs.

    Infeasible on purpose, so Figure 4 may strand overflow bits; runs on
    it use ``drain=False``.
    """
    rng = np.random.default_rng(seed)
    rate = 4.5 * 64.0 / k  # over twice each session's share, twice running
    hot = rng.poisson(rate, size=(horizon, k)) * rng.uniform(0.6, 1.4, size=(horizon, k))
    calm = rng.uniform(0.0, 2.0, size=(horizon, k))
    on = (np.arange(horizon) // 50 % 3 == 1)[:, None]
    return np.where(on, hot, calm)


def _check(factory, arrivals, **kwargs):
    policy = factory()
    assert multi_vector_capable(policy)
    sliced = run_multi_session(policy, arrivals, **kwargs)
    _assert_identical(sliced, run_multi_session(factory(), arrivals, vector=False, **kwargs))
    return sliced, policy


class TestPhasedIdentity:
    @pytest.mark.parametrize("k", [1, 2, 8])
    @pytest.mark.parametrize("fifo", [False, True])
    def test_bursty_blocks(self, k, fifo):
        _check(_phased(k, fifo), _blocks(k, 1200, seed=k))

    @pytest.mark.parametrize("k", [1, 2, 8])
    @pytest.mark.parametrize("fifo", [False, True])
    def test_regular_bumps_and_forced_reset(self, k, fifo):
        trace, policy = _check(_phased(k, fifo), _overload(k, 900, seed=10 + k), drain=False)
        assert trace.resets, "the overload must end a stage"
        bumps = [c for _, kind, c in trace.local_changes if kind == "regular" and c.new > c.old]
        assert bumps, "the overload must bump a regular allocation"

    @pytest.mark.parametrize("fifo", [False, True])
    @given(seed=seeds)
    @_SETTINGS
    def test_fuzzed(self, fifo, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.choice([1, 2, 3, 8]))
        horizon = int(rng.integers(1, 300))
        arrivals = _overload(k, horizon, seed) * rng.uniform(0.05, 1.0)
        arrivals[rng.random(arrivals.shape) < 0.1] = 1e-10  # dust
        _check(_phased(k, fifo), arrivals, drain=False)


class TestEpochIdentity:
    @pytest.mark.parametrize("factory", [_max_min, _priority])
    @pytest.mark.parametrize("fifo", [False, True])
    def test_bursty_and_overloaded(self, factory, fifo):
        rng = np.random.default_rng(5)
        bursty = np.where(rng.random((400, 3)) < 0.2, rng.uniform(4.0, 16.0, size=(400, 3)), 0.0)
        _check(factory(3, fifo), bursty)
        _check(factory(3, fifo), np.full((200, 3), 9.0))

    @pytest.mark.parametrize("factory", [_max_min, _priority])
    @given(seed=seeds)
    @_SETTINGS
    def test_fuzzed(self, factory, seed):
        rng = np.random.default_rng(seed)
        arrivals = rng.uniform(0.0, 6.0, size=(int(rng.integers(1, 120)), 3))
        _check(factory(3, bool(rng.integers(2))), arrivals)


class TestStepBudgets:
    """``step(n)`` budgets that end before, on and after a boundary."""

    @pytest.mark.parametrize(
        "factory", [_phased(2), _phased(8, fifo=True), _max_min(), _priority()]
    )
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_budget_relative_to_boundary(self, factory, offset):
        arrivals = _overload(factory().k, 600, seed=3)
        reference = run_multi_session(factory(), arrivals, vector=False, drain=False)
        state = MultiEngineState(factory(), arrivals, drain=False)
        while not state.done:
            boundary = state.policy.next_boundary
            budget = 1 if boundary is None else max(1, boundary - state.t + offset)
            state.step(budget)
        _assert_identical(state.finalize(), reference)

    @given(seed=seeds)
    @_SETTINGS
    def test_random_budgets(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.choice([1, 2, 8]))
        factory = _phased(k, fifo=bool(rng.integers(2)))
        arrivals = _blocks(k, 400, seed)
        reference = run_multi_session(factory(), arrivals, vector=False)
        state = MultiEngineState(factory(), arrivals)
        while not state.done:
            state.step(int(rng.integers(1, 3 * D_O)))
        _assert_identical(state.finalize(), reference)


class TestFaults:
    def test_standard_plan_hot_slots_on_and_next_to_boundaries(self):
        horizon = 1500
        arrivals = _blocks(3, horizon, seed=6)
        plan = standard_plan(0.3, horizon, seed=1)
        trace, policy = _check(_phased(3), arrivals, faults=plan, drain=False)
        capacity = plan.capacity_factors(0, horizon)
        ingress = plan.ingress_factors(0, horizon)
        hot = set(np.flatnonzero((capacity != 1.0) | (ingress != 1.0)).tolist())
        boundaries = set(policy.phase_boundaries)
        assert hot & boundaries, "some hot slot must fall on a phase end"
        assert {t + 1 for t in boundaries} & hot, "and some right after one"
        assert {t - 1 for t in boundaries} & hot, "and some right before one"
        for session in policy.sessions:
            assert session.channels.capacity_factor == 1.0

    @pytest.mark.parametrize("fifo", [False, True])
    def test_degraded_slots_around_boundaries(self, fifo):
        windows = [(16, 17), (23, 24), (25, 26), (40, 43), (63, 65)]
        plan = FaultPlan([LinkDegradation(t0, t1, 0.5) for t0, t1 in windows])
        _check(_phased(2, fifo), _overload(2, 300, seed=4), faults=plan, drain=False)
        _check(_max_min(3, fifo), _overload(3, 300, seed=4) / 8, faults=plan)

    @given(seed=seeds)
    @_SETTINGS
    def test_fuzzed_plans(self, seed):
        rng = np.random.default_rng(seed)
        horizon = int(rng.integers(200, 400))  # 6 segments of >= 32 slots
        plan = standard_plan(float(rng.uniform(0.05, 1.0)), horizon, seed=seed)
        _check(_phased(3), _blocks(3, horizon, seed), faults=plan, drain=False)


class TestDrainTail:
    @pytest.mark.parametrize(
        "factory, scale",
        [(_phased(2), 1.0), (_phased(8, fifo=True), 1.0), (_max_min(), 0.1), (_priority(), 0.1)],
    )
    def test_backlog_at_the_horizon_drains_identically(self, factory, scale):
        arrivals = _blocks(factory().k, 400, seed=8) * scale
        arrivals[-1] += 500.0
        trace, _ = _check(factory, arrivals)
        assert trace.slots > trace.horizon


class TestSlicesCrossPhaseEnds:
    def test_some_block_is_longer_than_a_phase(self, bulk_commits):
        arrivals = _blocks(2, 3000, seed=2)
        trace, _ = _check(_phased(2), arrivals)
        assert trace.backlog.max() > 0, "the input must backlog the queues"
        assert max(bulk_commits) > D_O
        assert sum(bulk_commits) == trace.horizon
