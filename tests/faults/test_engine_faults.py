"""Engine × FaultPlan integration: degradation, ingress loss, identity."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.baselines import StaticAllocator
from repro.core.phased import PhasedMultiSession
from repro.core.single_session import SingleSessionOnline
from repro.faults import (
    FaultPlan,
    IngressDrop,
    LinkDegradation,
    install_signaling,
    standard_plan,
)
from repro.sim.engine import run_multi_session, run_single_session
from tests.strategies import seeds


class TestLinkDegradation:
    def test_serving_uses_effective_bandwidth(self):
        plan = FaultPlan((LinkDegradation(0, 10, factor=0.5),), seed=0)
        trace = run_single_session(
            StaticAllocator(4.0), [4.0] * 10, faults=plan, drain=False
        )
        # Allocation records the granted 4.0; only 2.0 bits/slot are served.
        assert np.all(trace.allocation == 4.0)
        assert np.all(trace.effective == 2.0)
        assert trace.delivered.sum() == pytest.approx(20.0)
        assert trace.backlog[-1] == pytest.approx(20.0)

    def test_degradation_does_not_touch_change_accounting(self):
        plan = FaultPlan((LinkDegradation(2, 5, factor=0.25),), seed=0)
        faulted = run_single_session(
            StaticAllocator(4.0), [1.0] * 8, faults=plan
        )
        clean = run_single_session(StaticAllocator(4.0), [1.0] * 8)
        assert faulted.change_count == clean.change_count


class TestIngressDrop:
    def test_conservation_counts_fault_drops(self):
        plan = FaultPlan((IngressDrop(p=1.0, fraction=0.5),), seed=0)
        trace = run_single_session(StaticAllocator(8.0), [4.0] * 20, faults=plan)
        # The trace records the offered load; half of it never arrived.
        assert trace.total_arrived == pytest.approx(80.0)
        assert trace.total_dropped == pytest.approx(40.0)
        assert trace.total_delivered == pytest.approx(40.0)

    def test_multi_session_conservation(self):
        plan = FaultPlan((IngressDrop(p=1.0, fraction=0.5),), seed=0)
        policy = PhasedMultiSession(2, offline_bandwidth=16.0, offline_delay=4)
        arrivals = np.full((40, 2), 3.0)
        trace = run_multi_session(policy, arrivals, faults=plan)
        assert trace.arrivals.sum() == pytest.approx(240.0)
        assert trace.dropped.sum() == pytest.approx(120.0)
        assert trace.delivered.sum() == pytest.approx(120.0)


class TestRequestedVsGranted:
    def test_requested_series_tracks_policy_intent(self):
        plan = standard_plan(0.8, horizon=200, seed=5)
        policy = SingleSessionOnline(64.0, 8, 0.25, 16)
        install_signaling(policy, plan)
        arrivals = np.random.default_rng(1).poisson(8, 200).astype(float)
        trace = run_single_session(
            policy, arrivals, faults=plan, max_drain_slots=50_000
        )
        horizon = 200
        assert trace.requested.shape == trace.allocation.shape
        # Requests and grants must diverge somewhere under heavy faults...
        assert not np.array_equal(
            trace.requested[:horizon], trace.allocation[:horizon]
        )
        # ...and the effective series is the allocation scaled by <= 1.
        assert np.all(trace.effective <= trace.allocation + 1e-12)

    def test_faultless_trace_defaults_requested_to_allocation(self):
        trace = run_single_session(StaticAllocator(4.0), [1.0, 2.0])
        assert np.array_equal(trace.requested, trace.allocation)
        assert np.array_equal(trace.effective, trace.allocation)


class TestZeroFaultIdentity:
    """ISSUE gate: a zero-intensity plan reproduces the fault-free trace."""

    @settings(max_examples=15, deadline=None)
    @given(seed=seeds)
    def test_null_plan_single_session_bit_identical(self, seed):
        arrivals = (
            np.random.default_rng(seed).poisson(6, 150).astype(float)
        )
        policy_a = SingleSessionOnline(64.0, 8, 0.25, 16)
        policy_b = SingleSessionOnline(64.0, 8, 0.25, 16)
        clean = run_single_session(policy_a, arrivals)
        nulled = run_single_session(
            policy_b, arrivals, faults=standard_plan(0.0, 150, seed=seed)
        )
        assert np.array_equal(clean.allocation, nulled.allocation)
        assert np.array_equal(clean.delivered, nulled.delivered)
        assert np.array_equal(clean.backlog, nulled.backlog)
        assert clean.change_count == nulled.change_count
        assert clean.max_delay == nulled.max_delay

    def test_wrapped_policy_with_null_plan_bit_identical(self):
        arrivals = np.random.default_rng(3).poisson(6, 200).astype(float)
        plan = standard_plan(0.0, 200, seed=3)
        clean = run_single_session(
            SingleSessionOnline(64.0, 8, 0.25, 16), arrivals
        )
        wrapped = SingleSessionOnline(64.0, 8, 0.25, 16)
        install_signaling(wrapped, plan)
        faulted = run_single_session(wrapped, arrivals, faults=plan)
        assert np.array_equal(clean.allocation, faulted.allocation)
        assert np.array_equal(clean.delivered, faulted.delivered)
        assert clean.change_count == faulted.change_count

    def test_null_plan_multi_session_bit_identical(self):
        arrivals = (
            np.random.default_rng(9).poisson(4, (120, 2)).astype(float)
        )
        clean = run_multi_session(
            PhasedMultiSession(2, offline_bandwidth=16.0, offline_delay=4),
            arrivals,
        )
        nulled = run_multi_session(
            PhasedMultiSession(2, offline_bandwidth=16.0, offline_delay=4),
            arrivals,
            faults=FaultPlan((), seed=0),
        )
        assert np.array_equal(clean.total_allocation, nulled.total_allocation)
        assert np.array_equal(clean.delivered, nulled.delivered)
        assert clean.change_count == nulled.change_count


class TestFaultedRunDeterminism:
    def test_same_seed_same_trace(self):
        arrivals = np.random.default_rng(2).poisson(8, 300).astype(float)

        def run_once():
            plan = standard_plan(0.6, horizon=300, seed=4)
            policy = SingleSessionOnline(64.0, 8, 0.25, 16)
            install_signaling(policy, plan)
            return run_single_session(
                policy, arrivals, faults=plan, max_drain_slots=50_000
            )

        a, b = run_once(), run_once()
        assert np.array_equal(a.allocation, b.allocation)
        assert np.array_equal(a.effective, b.effective)
        assert np.array_equal(a.delivered, b.delivered)
        assert np.array_equal(a.dropped, b.dropped)
        assert a.change_count == b.change_count


class TestFaultStateRestoration:
    """A mid-run SimulationError must not leak degraded capacity into the
    sessions — the engine restores capacity_factor in a finally block."""

    def test_multi_session_capacity_restored_after_drain_failure(self):
        from repro.errors import SimulationError

        plan = FaultPlan((LinkDegradation(0, 10_000, factor=0.5),), seed=0)
        policy = PhasedMultiSession(2, offline_bandwidth=0.001, offline_delay=4)
        with pytest.raises(SimulationError, match="failed to drain"):
            run_multi_session(
                policy, np.full((5, 2), 50.0), faults=plan, max_drain_slots=20
            )
        for session in policy.sessions:
            assert session.channels.capacity_factor == 1.0

    def test_multi_session_capacity_restored_after_clean_run(self):
        plan = FaultPlan((LinkDegradation(0, 5, factor=0.5),), seed=0)
        policy = PhasedMultiSession(2, offline_bandwidth=16.0, offline_delay=4)
        run_multi_session(policy, np.full((20, 2), 1.0), faults=plan)
        for session in policy.sessions:
            assert session.channels.capacity_factor == 1.0
