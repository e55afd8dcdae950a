"""Epoch allocators through every engine loop: bit-identity.

MaxMinFairAllocator and PriorityTierAllocator are multi-vector capable
(they bulk-commit quiet slots between epochs), so the all-scalar run (a
:func:`~tests.references.scalar_reference` policy) and the default run
must produce byte-identical traces — and slicing the run into
arbitrary ``step(n_slots)`` chunks must be invisible too.  (The
``ThreeWay`` names date from when a third, general loop was compared.)  Fixed
seeds cover smooth, bursty, overloaded, and dust-tailed streams.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.maxminfair import MaxMinFairAllocator
from repro.core.prioritytier import PriorityTierAllocator
from repro.sim.engine import run_multi_session
from repro.sim.vector import MultiEngineState, multi_vector_capable
from tests.references import scalar_reference
from tests.strategies import FUZZ_EXAMPLES, seeds

_SETTINGS = settings(max_examples=FUZZ_EXAMPLES, deadline=None)


def _max_min(k=3):
    return MaxMinFairAllocator(k, capacity=12.0, period=4, quantum=0.25)


def _priority(k=3):
    return PriorityTierAllocator(
        k,
        capacity=12.0,
        period=4,
        tiers=[0] * (k - k // 2) + [1] * (k // 2),
        floors=[2.0, 1.0],
        quantum=0.25,
    )


FACTORIES = [_max_min, _priority]


def _streams(seed, k=3, slots=96):
    rng = np.random.default_rng(seed)
    smooth = rng.uniform(0.0, 3.0, size=(slots, k))
    bursty = np.where(
        rng.random((slots, k)) < 0.2, rng.uniform(4.0, 16.0, size=(slots, k)), 0.0
    )
    overload = np.full((slots, k), 9.0)
    dust = np.zeros((slots, k))
    dust[0] = 1e-9
    dust[slots // 2] = [1e-7 * (i + 1) for i in range(k)]
    return {"smooth": smooth, "bursty": bursty, "overload": overload, "dust": dust}


def _assert_multi_identical(first, second):
    np.testing.assert_array_equal(first.arrivals, second.arrivals)
    np.testing.assert_array_equal(first.regular_allocation, second.regular_allocation)
    np.testing.assert_array_equal(
        first.overflow_allocation, second.overflow_allocation
    )
    np.testing.assert_array_equal(first.delivered, second.delivered)
    np.testing.assert_array_equal(first.backlog, second.backlog)
    np.testing.assert_array_equal(first.requested_total, second.requested_total)
    assert first.delay_histograms == second.delay_histograms
    assert first.local_changes == second.local_changes
    assert first.stage_starts == second.stage_starts
    assert first.resets == second.resets
    assert first.horizon == second.horizon


class TestEpochVectorCapability:
    @pytest.mark.parametrize("factory", FACTORIES)
    def test_registered(self, factory):
        assert multi_vector_capable(factory())


class TestEpochThreeWay:
    @pytest.mark.parametrize("factory", FACTORIES)
    @pytest.mark.parametrize("shape", ["smooth", "bursty", "overload", "dust"])
    def test_three_way_identity(self, factory, shape):
        arrivals = _streams(47)[shape]
        vector = run_multi_session(factory(), arrivals)
        scalar = run_multi_session(scalar_reference(factory()), arrivals)
        _assert_multi_identical(vector, scalar)

    @pytest.mark.parametrize("factory", FACTORIES)
    @given(seed=seeds)
    @_SETTINGS
    def test_three_way_identity_fuzzed(self, factory, seed):
        rng = np.random.default_rng(seed)
        arrivals = rng.uniform(0.0, 6.0, size=(rng.integers(1, 80), 3))
        vector = run_multi_session(factory(), arrivals)
        scalar = run_multi_session(scalar_reference(factory()), arrivals)
        _assert_multi_identical(vector, scalar)


class TestEpochStepChunking:
    @pytest.mark.parametrize("factory", FACTORIES)
    @pytest.mark.parametrize("chunk", [1, 3, 7, 1000])
    def test_step_slicing_is_invisible(self, factory, chunk):
        arrivals = _streams(53)["bursty"]
        reference = run_multi_session(factory(), arrivals)
        state = MultiEngineState(factory(), arrivals)
        while not state.done:
            state.step(chunk)
        _assert_multi_identical(state.finalize(), reference)

    @pytest.mark.parametrize("factory", FACTORIES)
    @given(seed=seeds)
    @_SETTINGS
    def test_random_slicing_matches_run(self, factory, seed):
        rng = np.random.default_rng(seed)
        arrivals = rng.uniform(0.0, 5.0, size=(64, 3))
        reference = MultiEngineState(factory(), arrivals)
        reference.run()
        state = MultiEngineState(factory(), arrivals)
        while not state.done:
            state.step(int(rng.integers(1, 17)))
        _assert_multi_identical(state.finalize(), reference.finalize())
