"""Session-major slices are invisible: bit-identity against the all-scalar run.

A slice replays each session's queues with one
:func:`~repro.network.queue.replay_fifo` call up to that session's own next local event (a phase end that is not a
no-op for it, a TEST after a push, a REDUCE timer, an epoch), runs the
session's rule there and goes on; a RESET rolls back the sessions that
replayed past it and takes the scalar step.  Every recorded float must
equal the all-scalar run's: every trace column, the per-session delay
histograms, local changes, stage starts and resets.  The inputs below
keep queues backlogged, force regular bumps and RESETs (also from a
session other than session 0), cut ``step`` budgets before, on and after
phase ends and REDUCE timers, put fault slots on and next to them, and
leave a drain tail; hypothesis budgets follow ``REPRO_FUZZ_EXAMPLES``.
"""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.continuous import ContinuousMultiSession
from repro.core.maxminfair import MaxMinFairAllocator
from repro.core.phased import PhasedMultiSession
from repro.core.prioritytier import PriorityTierAllocator
from repro.faults import FaultPlan, LinkDegradation, standard_plan
from repro.obs import telemetry_session
from repro.sim import vector
from repro.sim.engine import run_multi_session
from repro.sim.vector import MultiEngineState, multi_vector_capable
from repro.traffic.multi import generate_multi_feasible
from tests.references import scalar_reference
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


def _continuous(k, fifo=False):
    return lambda: ContinuousMultiSession(k, offline_bandwidth=64.0, offline_delay=D_O, fifo=fifo)


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


def _reduces(trace) -> set[int]:
    """Slots where an overflow allocation fell: Figure 5's REDUCE timers."""
    return {c.t for _, kind, c in trace.local_changes if kind == "overflow" and c.new < c.old}


def _check(factory, arrivals, **kwargs):
    policy = factory()
    assert multi_vector_capable(policy)
    sliced = run_multi_session(policy, arrivals, **kwargs)
    _assert_identical(sliced, run_multi_session(scalar_reference(factory()), arrivals, **kwargs))
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


class TestContinuousIdentity:
    @pytest.mark.parametrize("k", [1, 2, 8])
    @pytest.mark.parametrize("fifo", [False, True])
    def test_bursty_blocks(self, k, fifo, bulk_commits):
        _check(_continuous(k, fifo), _blocks(k, 1200, seed=k))
        assert max(bulk_commits) > D_O

    @pytest.mark.parametrize("k", [1, 2, 8])
    @pytest.mark.parametrize("fifo", [False, True])
    def test_regular_bumps_reduces_and_forced_reset(self, k, fifo):
        trace, _ = _check(_continuous(k, fifo), _overload(k, 900, seed=10 + k), drain=False)
        assert trace.resets, "the overload must end a stage"
        assert _reduces(trace), "some REDUCE timer must fire"

    @pytest.mark.parametrize("fifo", [False, True])
    @given(seed=seeds)
    @_SETTINGS
    def test_fuzzed(self, fifo, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.choice([1, 2, 3, 8]))
        horizon = int(rng.integers(1, 300))
        arrivals = _overload(k, horizon, seed) * rng.uniform(0.05, 1.0)
        arrivals[rng.random(arrivals.shape) < 0.1] = 1e-10  # dust
        _check(_continuous(k, fifo), arrivals, drain=False)


class TestResetRollback:
    """A RESET from session 2 after sessions 0 and 1 replayed past it."""

    @staticmethod
    def _arrivals(horizon=600):
        calm = np.full((horizon, 3), 2.0)  # well under a quantum of 64/3
        calm[200:, 2] = 150.0  # session 2 outgrows every allocation
        return calm

    @pytest.mark.parametrize(
        "factory", [_phased(3), _phased(3, fifo=True), _continuous(3), _continuous(3, fifo=True)]
    )
    def test_later_session_resets_and_earlier_ones_roll_back(self, factory, monkeypatch):
        rollbacks = []
        original = vector._Lane.rollback

        def spy(lane, at, fifo):
            rollbacks.append((lane.session.index, lane.pos, at))
            return original(lane, at, fifo)

        monkeypatch.setattr(vector._Lane, "rollback", spy)
        trace, _ = _check(factory, self._arrivals(), drain=False)
        assert trace.resets
        rolled = {index for index, pos, at in rollbacks if pos > at}
        assert {0, 1} <= rolled, "sessions 0 and 1 must have replayed past the RESET"
        assert all(at in trace.resets for _, _, at in rollbacks)


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


class TestScalarReference:
    """The all-scalar reference the identity tests compare against takes
    no slice."""

    @pytest.mark.parametrize(
        "factory",
        [_phased(2), _continuous(3), _max_min(), _priority()],
        ids=["phased", "continuous", "max-min", "priority"],
    )
    def test_takes_no_slice(self, bulk_commits, factory):
        arrivals = _blocks(factory().k, 400, seed=2)
        reference = scalar_reference(factory())
        assert not multi_vector_capable(reference)
        run_multi_session(reference, arrivals, drain=False)
        assert bulk_commits == []
        run_multi_session(factory(), arrivals, drain=False)
        assert bulk_commits


class TestStepBudgets:
    """``step(n)`` budgets that end before, on and after a boundary."""

    @pytest.mark.parametrize(
        "factory", [_phased(2), _phased(8, fifo=True), _max_min(), _priority()]
    )
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_budget_relative_to_boundary(self, factory, offset):
        arrivals = _overload(factory().k, 600, seed=3)
        reference = run_multi_session(scalar_reference(factory()), arrivals, drain=False)
        state = MultiEngineState(factory(), arrivals, drain=False)
        while not state.done:
            policy = state.policy
            boundary = (
                policy._next_boundary
                if isinstance(policy, PhasedMultiSession)
                else policy.next_joint_decision
            )
            budget = 1 if boundary is None else max(1, boundary - state.t + offset)
            state.step(budget)
        _assert_identical(state.finalize(), reference)

    @pytest.mark.parametrize("fifo", [False, True])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_budget_relative_to_reduce(self, fifo, offset):
        factory = _continuous(3, fifo)
        arrivals = _overload(3, 600, seed=3)
        reference = run_multi_session(scalar_reference(factory()), arrivals, drain=False)
        state = MultiEngineState(factory(), arrivals, drain=False)
        while not state.done:
            dues = [state.policy.watch(i, state.t)[0] for i in range(3)]
            dues = [due for due in dues if due is not None]
            budget = max(1, min(dues) - state.t + offset) if dues else 1
            state.step(budget)
        _assert_identical(state.finalize(), reference)
        assert _reduces(reference)

    @given(seed=seeds)
    @_SETTINGS
    def test_random_budgets(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.choice([1, 2, 8]))
        factory = _phased(k, fifo=bool(rng.integers(2)))
        arrivals = _blocks(k, 400, seed)
        reference = run_multi_session(scalar_reference(factory()), arrivals)
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

    @pytest.mark.parametrize("fifo", [False, True])
    def test_hot_slots_on_and_next_to_reduces(self, fifo):
        horizon = 900
        arrivals = _overload(3, horizon, seed=7)
        plan = standard_plan(0.3, horizon, seed=2)
        trace, policy = _check(_continuous(3, fifo), arrivals, faults=plan, drain=False)
        capacity = plan.capacity_factors(0, horizon)
        ingress = plan.ingress_factors(0, horizon)
        hot = set(np.flatnonzero((capacity != 1.0) | (ingress != 1.0)).tolist())
        reduces = _reduces(trace)
        assert hot & reduces, "some hot slot must fall on a REDUCE"
        assert {t + 1 for t in reduces} & hot, "and some right after one"
        for session in policy.sessions:
            assert session.channels.capacity_factor == 1.0

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
        [
            (_phased(2), 1.0),
            (_phased(8, fifo=True), 1.0),
            (_continuous(2), 1.0),
            (_continuous(8, fifo=True), 1.0),
            (_max_min(), 0.1),
            (_priority(), 0.1),
        ],
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


class TestTelemetryParity:
    """Bulk booking changes no count: the policy counters, the phase ends
    and the phase spans of a sliced run equal the all-scalar run's."""

    @staticmethod
    def _observe(factory, arrivals, vector_on):
        with telemetry_session() as tele:
            policy = factory() if vector_on else scalar_reference(factory())
            run_multi_session(policy, arrivals, drain=False)
        counters = {
            name: value
            for name, value in tele.registry.snapshot()["counters"].items()
            if name.startswith(("core.phased.", "core.continuous."))
        }
        spans = [(s.t0, s.t1, s.attrs) for s in tele.tracer.spans if s.kind == "phase"]
        return counters, getattr(policy, "phase_boundaries", None), spans

    @pytest.mark.parametrize(
        "factory, arrivals",
        [
            (_phased(2), _blocks(2, 1500, seed=4)),
            (_phased(3, fifo=True), _overload(3, 600, seed=5)),
            (_continuous(3), _overload(3, 600, seed=5)),
            (_continuous(8, fifo=True), _blocks(8, 1200, seed=6)),
        ],
    )
    def test_counters_phase_ends_and_spans_match(self, factory, arrivals):
        sliced = self._observe(factory, arrivals, True)
        assert sliced[0], "the run must count policy events"
        assert sliced == self._observe(factory, arrivals, False)
