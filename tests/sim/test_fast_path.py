"""Engine path tests: bulk commits vs scalar steps (a
:func:`~tests.references.scalar_reference` policy) are bit-identical —
with telemetry on and under faults too — and the drain-slot cap behaves
identically on both."""

import numpy as np
import pytest

from repro.core.baselines import EqualSplitMultiSession, StaticAllocator
from repro.core.continuous import ContinuousMultiSession
from repro.core.phased import PhasedMultiSession
from repro.core.single_session import SingleSessionOnline
from repro.errors import SimulationError
from repro.faults import standard_plan
from repro.obs import telemetry_session
from repro.sim.engine import run_multi_session, run_single_session
from repro.sim.vector import multi_vector_capable, vector_capable
from repro.traffic import generate_multi_feasible
from tests.references import scalar_reference


def _retyped(policy, vector: bool):
    """``policy`` itself, or (``vector`` False) its all-scalar reference."""
    return policy if vector else scalar_reference(policy)


def _policy():
    return SingleSessionOnline(
        max_bandwidth=64, offline_delay=8, offline_utilization=0.25, window=16
    )


def _stream(horizon=2500, seed=13):
    return np.random.default_rng(seed).poisson(6, size=horizon).astype(float)


def _assert_single_identical(first, second):
    np.testing.assert_array_equal(first.arrivals, second.arrivals)
    np.testing.assert_array_equal(first.allocation, second.allocation)
    np.testing.assert_array_equal(first.delivered, second.delivered)
    np.testing.assert_array_equal(first.backlog, second.backlog)
    np.testing.assert_array_equal(first.dropped, second.dropped)
    np.testing.assert_array_equal(first.requested, second.requested)
    np.testing.assert_array_equal(first.effective, second.effective)
    assert first.delay_histogram == second.delay_histogram
    assert first.changes == second.changes
    assert first.stage_starts == second.stage_starts
    assert first.resets == second.resets


class TestSingleSessionBitIdentity:
    def test_fast_vs_general_loop(self):
        arrivals = _stream()
        bulk = run_single_session(_policy(), arrivals)
        scalar = run_single_session(scalar_reference(_policy()), arrivals)
        _assert_single_identical(bulk, scalar)

    def test_fast_vs_instrumented(self):
        arrivals = _stream(seed=21)
        plain = run_single_session(scalar_reference(_policy()), arrivals)
        with telemetry_session():
            instrumented = run_single_session(_policy(), arrivals)
        _assert_single_identical(plain, instrumented)

    def test_faulted_bulk_vs_scalar(self, bulk_commits):
        arrivals = np.repeat(np.random.default_rng(4).uniform(1, 12, 12), 400)
        plan = standard_plan(0.3, len(arrivals), seed=2)
        assert vector_capable(_policy())
        bulk = run_single_session(_policy(), arrivals, faults=plan)
        assert bulk_commits, "fault-free stretches should still bulk-commit"
        scalar = run_single_session(scalar_reference(_policy()), arrivals, faults=plan)
        _assert_single_identical(bulk, scalar)

    def test_no_drain_and_capacity(self):
        arrivals = _stream(horizon=500, seed=3)
        bulk = run_single_session(StaticAllocator(4.0), arrivals, drain=False)
        scalar = run_single_session(
            scalar_reference(StaticAllocator(4.0)), arrivals, drain=False
        )
        _assert_single_identical(bulk, scalar)
        assert bulk.slots == 500


class TestMultiSessionBitIdentity:
    @pytest.mark.parametrize("cls", [PhasedMultiSession, ContinuousMultiSession])
    def test_fast_vs_general_loop(self, cls):
        workload = generate_multi_feasible(
            3, offline_bandwidth=48, offline_delay=8, horizon=1200, seed=4
        )

        def run(vector):
            policy = _retyped(cls(3, offline_bandwidth=48, offline_delay=8), vector)
            return run_multi_session(policy, workload.arrivals)

        bulk = run(True)
        scalar = run(False)
        np.testing.assert_array_equal(
            bulk.regular_allocation, scalar.regular_allocation
        )
        np.testing.assert_array_equal(
            bulk.overflow_allocation, scalar.overflow_allocation
        )
        np.testing.assert_array_equal(bulk.delivered, scalar.delivered)
        np.testing.assert_array_equal(bulk.backlog, scalar.backlog)
        np.testing.assert_array_equal(bulk.requested_total, scalar.requested_total)
        assert bulk.local_changes == scalar.local_changes
        assert bulk.stage_starts == scalar.stage_starts
        assert bulk.delay_histograms == scalar.delay_histograms

    def test_faulted_phased_bulk_vs_scalar(self, bulk_commits):
        workload = generate_multi_feasible(
            3, offline_bandwidth=64, offline_delay=8, horizon=1500, seed=6
        )
        plan = standard_plan(0.3, 1500, seed=1)

        def run(vector):
            policy = PhasedMultiSession(3, offline_bandwidth=64, offline_delay=8)
            policy = _retyped(policy, vector)
            assert multi_vector_capable(policy) == vector
            trace = run_multi_session(policy, workload.arrivals, faults=plan, drain=False)
            for session in policy.sessions:
                assert session.channels.capacity_factor == 1.0
            return trace

        bulk = run(True)
        assert bulk_commits, "fault-free stretches should still bulk-commit"
        commits = len(bulk_commits)
        scalar = run(False)
        assert len(bulk_commits) == commits, "the scalar reference takes no slice"
        for name in ("regular_allocation", "overflow_allocation", "delivered",
                     "backlog", "requested_total", "dropped"):
            np.testing.assert_array_equal(getattr(bulk, name), getattr(scalar, name))
        assert bulk.delay_histograms == scalar.delay_histograms


class TestDrainCap:
    """max_drain_slots exhaustion raises SimulationError on both paths."""

    @pytest.mark.parametrize("vector", [True, False])
    def test_single_session_cap_trips(self, vector):
        with pytest.raises(SimulationError, match="failed to drain"):
            run_single_session(
                _retyped(StaticAllocator(1e-9), vector), [100.0], max_drain_slots=10
            )

    @pytest.mark.parametrize("vector", [True, False])
    def test_multi_session_cap_trips(self, vector):
        policy = EqualSplitMultiSession(2, offline_bandwidth=1e-9)
        with pytest.raises(SimulationError, match="failed to drain"):
            run_multi_session(_retyped(policy, vector), [[50.0, 50.0]], max_drain_slots=10)

    @pytest.mark.parametrize("vector", [True, False])
    def test_zero_length_horizon_with_zero_cap(self, vector):
        """An empty horizon has nothing to drain: the cap never trips."""
        trace = run_single_session(
            _retyped(StaticAllocator(1.0), vector), [], max_drain_slots=0
        )
        assert trace.slots == 0
        policy = EqualSplitMultiSession(2, offline_bandwidth=2.0)
        multi = run_multi_session(
            _retyped(policy, vector), np.zeros((0, 2)), max_drain_slots=0
        )
        assert multi.slots == 0

    @pytest.mark.parametrize("vector", [True, False])
    def test_cap_exactly_sufficient(self, vector):
        # 10 units at 1/slot: 9 extra slots drain what the horizon started.
        trace = run_single_session(
            _retyped(StaticAllocator(1.0), vector), [10.0], max_drain_slots=9
        )
        assert trace.backlog[-1] == pytest.approx(0.0)
        with pytest.raises(SimulationError, match="failed to drain"):
            run_single_session(
                _retyped(StaticAllocator(1.0), vector), [10.0], max_drain_slots=8
            )
