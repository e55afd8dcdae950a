"""Vectorized engine tests: bit-identity against the scalar paths.

The event-sliced fast-forward (:mod:`repro.sim.vector`) must be invisible
in every recorded float: the vectorized run and the all-scalar run (a
:func:`~tests.references.scalar_reference` policy, which the exact-type
gates send down the scalar step) produce byte-identical traces.  These
tests drive that equivalence over fixed edge cases (drain phases, zero
horizons, dust accumulation) and randomized streams (hypothesis, with the
budget driven by ``REPRO_FUZZ_EXAMPLES``), plus the exact-type gates
(:func:`vector_capable`, :func:`multi_vector_capable`): a policy the gate
turns away runs scalar steps and matches the reference too.  (The
``ThreeWay`` names date from when a third, general loop was compared as
well.)
"""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.baselines import EqualSplitMultiSession, StaticAllocator
from repro.core.continuous import ContinuousMultiSession
from repro.core.maxminfair import MaxMinFairAllocator
from repro.core.modified_single import ModifiedSingleSessionOnline
from repro.core.phased import PhasedMultiSession
from repro.core.single_session import SingleSessionOnline
from repro.network.queue import EPSILON
from repro.sim.engine import run_multi_session, run_single_session
from repro.sim.vector import multi_vector_capable, vector_capable
from tests.references import scalar_reference
from tests.strategies import FUZZ_EXAMPLES, arrival_streams

_SETTINGS = settings(max_examples=FUZZ_EXAMPLES, deadline=None)


def _policy():
    return SingleSessionOnline(
        max_bandwidth=64, offline_delay=8, offline_utilization=0.25, window=16
    )


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
    assert first.horizon == second.horizon


def _assert_three_way(arrivals, policy_factory=_policy):
    policy = policy_factory()
    assert vector_capable(policy)
    vector = run_single_session(policy, arrivals)
    scalar = run_single_session(scalar_reference(policy_factory()), arrivals)
    _assert_single_identical(vector, scalar)
    return vector


class TestVectorCapability:
    def test_stock_policy_is_capable(self):
        assert vector_capable(_policy())
        assert vector_capable(StaticAllocator(bandwidth=8.0))

    def test_subclasses_are_not(self):
        # Switches ladders when a stage matures, which a policy-quiet
        # slice cannot see.
        policy = ModifiedSingleSessionOnline(
            max_bandwidth=64, offline_delay=8, offline_utilization=0.25, window=16
        )
        assert not vector_capable(policy)

    def test_incapable_policy_takes_scalar_steps(self, bulk_commits):
        def policy():
            return ModifiedSingleSessionOnline(
                max_bandwidth=64, offline_delay=8, offline_utilization=0.25, window=16
            )

        arrivals = np.random.default_rng(9).poisson(6, 600).astype(float)
        default = run_single_session(policy(), arrivals)
        assert bulk_commits == []
        _assert_single_identical(default, run_single_session(scalar_reference(policy()), arrivals))

    def test_vector_true_accepts_faults_and_telemetry(self, bulk_commits):
        from repro.faults import standard_plan
        from repro.obs import telemetry_session

        arrivals = np.full(300, 4.0)
        plan = standard_plan(0.3, 300, seed=1)
        scalar = run_single_session(scalar_reference(_policy()), arrivals, faults=plan)
        with telemetry_session():
            vector = run_single_session(_policy(), arrivals, faults=plan)
        assert bulk_commits, "fault-free stretches should still slice"
        _assert_single_identical(vector, scalar)

    def test_bounded_queue_takes_scalar_steps(self, bulk_commits):
        arrivals = np.random.default_rng(8).poisson(6, 400).astype(float)
        bounded = run_single_session(_policy(), arrivals, queue_capacity=40.0)
        assert bulk_commits == []
        _assert_single_identical(
            bounded,
            run_single_session(scalar_reference(_policy()), arrivals, queue_capacity=40.0),
        )

    @pytest.mark.parametrize(
        "policy",
        [_policy, lambda: StaticAllocator(bandwidth=8.0)],
        ids=["fig3", "static"],
    )
    def test_scalar_reference_takes_no_slice(self, bulk_commits, policy):
        arrivals = np.random.default_rng(5).poisson(6, 400).astype(float)
        reference = scalar_reference(policy())
        assert not vector_capable(reference)
        run_single_session(reference, arrivals)
        assert bulk_commits == []
        run_single_session(policy(), arrivals)
        assert bulk_commits

    def test_vector_false_still_matches(self):
        arrivals = np.random.default_rng(5).poisson(6, 400).astype(float)
        _assert_three_way(arrivals)
        for row in np.random.default_rng(37).uniform(0, 8, size=(3, 600)):
            _assert_three_way(row)


class TestSingleThreeWayIdentity:
    def test_piecewise_constant(self):
        rng = np.random.default_rng(11)
        arrivals = np.repeat(rng.uniform(1, 12, size=10), 500)
        _assert_three_way(arrivals)
        levels = np.random.default_rng(31).uniform(1, 12, size=(6, 4))
        for row in np.repeat(levels, 250, axis=1):
            _assert_three_way(row)

    def test_bursty_poisson(self):
        arrivals = np.random.default_rng(2).poisson(6, 3000).astype(float)
        _assert_three_way(arrivals)

    def test_static_allocator(self):
        arrivals = np.random.default_rng(3).uniform(0, 6, 2000)
        _assert_three_way(arrivals, lambda: StaticAllocator(bandwidth=8.0))

    def test_zero_horizon(self):
        trace = _assert_three_way(np.array([]))
        assert trace.horizon == 0
        assert len(trace.allocation) == 0

    def test_all_zero_arrivals(self):
        _assert_three_way(np.zeros(500))

    def test_drain_phase(self):
        # A burst at the end leaves backlog that only drains past the
        # horizon; drain slots must be identical on every path.
        arrivals = np.zeros(600)
        arrivals[590:] = 100.0
        trace = _assert_three_way(arrivals)
        assert len(trace.allocation) > trace.horizon

    def test_dust_accumulation(self):
        # Sub-epsilon arrivals are pushed as no-ops on quiet slots; the
        # bulk commit must not deliver or accumulate them differently.
        rng = np.random.default_rng(7)
        arrivals = rng.uniform(0, 4, 1500)
        arrivals[::3] = EPSILON / 2
        arrivals[::7] = 0.0
        _assert_three_way(arrivals)

    def test_exact_epsilon_arrivals(self):
        # Pinned boundary: arrivals == EPSILON are *not* above the dust
        # threshold (strict >), so they deliver nothing on any path.
        arrivals = np.full(300, EPSILON)
        arrivals[::5] = 2.0
        _assert_three_way(arrivals)

    def test_spiky_reset_heavy(self):
        # Pinned counterexample shape from development: tall isolated
        # spikes drive repeated stage end / RESET / restart cycles whose
        # event slots must all fall out of the bulk path.
        rng = np.random.default_rng(17)
        arrivals = np.zeros(2000)
        spikes = rng.random(2000) < 0.05
        arrivals[spikes] = rng.uniform(16, 32, spikes.sum())
        _assert_three_way(arrivals)

    @_SETTINGS
    @given(arrival_streams(max_slots=400))
    def test_random_streams(self, arrivals):
        _assert_three_way(arrivals)

    @_SETTINGS
    @given(arrival_streams(max_slots=300, max_rate=8.0))
    def test_random_streams_static(self, arrivals):
        _assert_three_way(arrivals, lambda: StaticAllocator(bandwidth=4.0))


class TestMultiVector:
    @staticmethod
    def _multi_policy(k=2):
        return PhasedMultiSession(k, offline_bandwidth=8.0 * k, offline_delay=8)

    @staticmethod
    def _assert_multi_identical(first, second):
        np.testing.assert_array_equal(first.arrivals, second.arrivals)
        np.testing.assert_array_equal(
            first.regular_allocation, second.regular_allocation
        )
        np.testing.assert_array_equal(
            first.overflow_allocation, second.overflow_allocation
        )
        np.testing.assert_array_equal(first.delivered, second.delivered)
        np.testing.assert_array_equal(first.backlog, second.backlog)
        np.testing.assert_array_equal(first.requested_total, second.requested_total)
        assert first.delay_histograms == second.delay_histograms
        assert first.stage_starts == second.stage_starts
        assert first.resets == second.resets

    def test_multi_three_way(self):
        rng = np.random.default_rng(23)
        arrivals = np.repeat(rng.uniform(0.5, 4.0, size=(5, 2)), 400, axis=0)
        policy = self._multi_policy()
        assert multi_vector_capable(policy)
        vector = run_multi_session(policy, arrivals)
        scalar = run_multi_session(scalar_reference(self._multi_policy()), arrivals)
        self._assert_multi_identical(vector, scalar)

    def test_multi_bursty(self):
        arrivals = np.random.default_rng(29).poisson(3, size=(1500, 3)).astype(float)
        policy = lambda: self._multi_policy(3)  # noqa: E731
        vector = run_multi_session(policy(), arrivals)
        scalar = run_multi_session(scalar_reference(policy()), arrivals)
        self._assert_multi_identical(vector, scalar)

    def test_multi_incapable_takes_scalar_steps(self, bulk_commits):
        def policy():
            return EqualSplitMultiSession(2, offline_bandwidth=8.0)

        arrivals = np.random.default_rng(19).poisson(3, size=(300, 2)).astype(float)
        assert not multi_vector_capable(policy())
        default = run_multi_session(policy(), arrivals)
        assert bulk_commits == []
        self._assert_multi_identical(
            default, run_multi_session(scalar_reference(policy()), arrivals)
        )


class _LoggingPhased(PhasedMultiSession):
    """Overrides ``step``: a bulk commit would skip the override."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.stepped: list[int] = []

    def step(self, t, arrivals):
        self.stepped.append(t)
        return super().step(t, arrivals)


class _MaxMinSubclass(MaxMinFairAllocator):
    """A subclass that changes nothing: the gate still turns it away."""


class _ContinuousSubclass(ContinuousMultiSession):
    """A subclass that changes nothing: the gate still turns it away."""


class TestMultiExactTypeGate:
    """``multi_vector_capable`` matches exact types, never subclasses."""

    @staticmethod
    def _calm(k):
        # Calm rates under the allocation: the stock types bulk-commit here.
        rng = np.random.default_rng(41)
        return np.repeat(rng.uniform(0.5, 2.0, size=(4, k)), 200, axis=0)

    def test_stock_types_bulk_commit(self, bulk_commits):
        run_multi_session(PhasedMultiSession(2, offline_bandwidth=16.0, offline_delay=8), self._calm(2))
        run_multi_session(MaxMinFairAllocator(3, capacity=12.0, period=4), self._calm(3))
        assert bulk_commits

    def test_step_override_is_not_capable(self, bulk_commits):
        def policy():
            return _LoggingPhased(2, offline_bandwidth=16.0, offline_delay=8)

        arrivals = self._calm(2)
        logged = policy()
        assert not multi_vector_capable(logged)
        default = run_multi_session(logged, arrivals)
        assert bulk_commits == []
        assert logged.stepped == list(range(default.slots))
        TestMultiVector._assert_multi_identical(
            default, run_multi_session(scalar_reference(policy()), arrivals)
        )

    def test_max_min_subclass_is_not_capable(self, bulk_commits):
        def policy():
            return _MaxMinSubclass(3, capacity=12.0, period=4)

        arrivals = self._calm(3)
        assert not multi_vector_capable(policy())
        default = run_multi_session(policy(), arrivals)
        assert bulk_commits == []
        TestMultiVector._assert_multi_identical(
            default, run_multi_session(scalar_reference(policy()), arrivals)
        )

    def test_continuous_subclass_is_not_capable(self, bulk_commits):
        def policy():
            return _ContinuousSubclass(2, offline_bandwidth=16.0, offline_delay=8)

        arrivals = self._calm(2)
        assert multi_vector_capable(ContinuousMultiSession(2, offline_bandwidth=16.0, offline_delay=8))
        assert not multi_vector_capable(policy())
        default = run_multi_session(policy(), arrivals)
        assert bulk_commits == []
        TestMultiVector._assert_multi_identical(
            default, run_multi_session(scalar_reference(policy()), arrivals)
        )
