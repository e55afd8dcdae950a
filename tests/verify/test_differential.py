"""Differential fuzzing: engines vs certificates vs the offline oracle.

This is the harness the ISSUE asks for: hypothesis generates workloads
(certified-feasible, raw, faulted), the engines run them, and the
certificate checker independently replays every trace.  A single
uncertified trace fails the suite with the violating slot in the
shrunk example.

Example budget is ``REPRO_FUZZ_EXAMPLES`` (default 25; CI 200; the
nightly job 1000) via :mod:`tests.strategies`.
"""

import math

import numpy as np
from hypothesis import HealthCheck, given, settings

from repro.core.phased import PhasedMultiSession
from repro.core.single_session import SingleSessionOnline
from repro.adversary.differential import (
    certified_multi_run,
    certified_single_run,
    default_policy,
)
from tests.strategies import (
    FUZZ_EXAMPLES,
    arrival_streams,
    fault_plans,
    feasible_multi_workloads,
    feasible_single_workloads,
    seeds,
)
from tests.differential import (
    assert_certified,
    oracle_ratio_check,
    vector_mismatch_multi,
    vector_mismatch_single,
)

_FUZZ = settings(
    max_examples=FUZZ_EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
_FUZZ_SLOW = settings(
    max_examples=max(5, FUZZ_EXAMPLES // 5),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


class TestCertifiedWorkloads:
    """Every trace of a certified workload must certify in full."""

    @_FUZZ
    @given(workload=feasible_single_workloads())
    def test_single_session_certifies(self, workload):
        stream, offline = workload
        _, report = certified_single_run(
            stream.arrivals,
            offline,
            profile=stream.profile,
            max_drain_slots=500_000,
        )
        assert_certified(report)
        # The profile was supplied and the workload is certified: the
        # conditional checks must actually have run, not been skipped.
        assert report.checked_count == len(report.checks)

    @_FUZZ_SLOW
    @given(workload=feasible_multi_workloads())
    def test_multi_phased_certifies(self, workload):
        arrivals_workload, bandwidth, delay, _ = workload
        _, report = certified_multi_run(
            arrivals_workload.arrivals,
            bandwidth,
            delay,
            engine="phased",
            max_drain_slots=500_000,
        )
        assert_certified(report)

    @_FUZZ_SLOW
    @given(workload=feasible_multi_workloads())
    def test_multi_continuous_certifies(self, workload):
        arrivals_workload, bandwidth, delay, _ = workload
        _, report = certified_multi_run(
            arrivals_workload.arrivals,
            bandwidth,
            delay,
            engine="continuous",
            max_drain_slots=500_000,
        )
        assert_certified(report)


class TestRawAndFaultedWorkloads:
    """Uncertified input: the unconditional accounting checks still hold."""

    @_FUZZ
    @given(arrivals=arrival_streams())
    def test_raw_arrivals_certify_unconditionally(self, arrivals):
        from repro.params import OfflineConstraints

        offline = OfflineConstraints(bandwidth=64.0, delay=8)
        _, report = certified_single_run(
            arrivals, offline, feasible=False, max_drain_slots=500_000
        )
        assert_certified(report)

    @_FUZZ_SLOW
    @given(arrivals=arrival_streams(max_slots=150), plan=fault_plans(horizon=150))
    def test_faulted_runs_certify_unconditionally(self, arrivals, plan):
        from repro.faults import install_signaling
        from repro.params import OfflineConstraints

        offline = OfflineConstraints(bandwidth=64.0, delay=8)
        policy = default_policy(offline)
        install_signaling(policy, plan)
        _, report = certified_single_run(
            arrivals,
            offline,
            policy=policy,
            feasible=False,
            faults=plan,
            max_drain_slots=500_000,
        )
        assert_certified(report)


class TestFastPathDifferential:
    """Bulk commits vs scalar steps (the all-scalar reference) must be bit-identical
    — any divergence is a bug."""

    @_FUZZ
    @given(arrivals=arrival_streams())
    def test_single_session_bit_identity(self, arrivals):
        mismatch = vector_mismatch_single(
            lambda: SingleSessionOnline(64.0, 8, 0.25, 16),
            arrivals,
            max_drain_slots=500_000,
        )
        assert mismatch is None, mismatch

    @_FUZZ_SLOW
    @given(arrivals=arrival_streams(max_slots=150), plan=fault_plans(horizon=150))
    def test_faulted_single_session_bit_identity(self, arrivals, plan):
        mismatch = vector_mismatch_single(
            lambda: SingleSessionOnline(64.0, 8, 0.25, 16),
            arrivals,
            faults=plan,
            max_drain_slots=500_000,
        )
        assert mismatch is None, mismatch

    @_FUZZ_SLOW
    @given(seed=seeds)
    def test_multi_session_bit_identity(self, seed):
        rng = np.random.default_rng(seed)
        arrivals = rng.poisson(2, size=(int(rng.integers(20, 120)), 3)).astype(
            float
        )
        mismatch = vector_mismatch_multi(
            lambda: PhasedMultiSession(3, offline_bandwidth=32.0, offline_delay=4),
            arrivals,
            max_drain_slots=500_000,
        )
        assert mismatch is None, mismatch


class TestOracleRatios:
    """Theorem 6's envelope against the DP-exact offline optimum."""

    @_FUZZ_SLOW
    @given(workload=feasible_single_workloads(max_segments=3))
    def test_online_changes_within_theorem6_envelope(self, workload):
        stream, offline = workload
        trace, report = certified_single_run(
            stream.arrivals,
            offline,
            profile=stream.profile,
            max_drain_slots=500_000,
        )
        assert_certified(report)
        opt, budget, ok = oracle_ratio_check(
            stream.arrivals,
            offline,
            trace.change_count,
            log_factor=math.log2(offline.bandwidth),
        )
        assert ok, (
            f"online made {trace.change_count} changes, oracle OPT={opt}, "
            f"budget {budget:.1f}"
        )
        # The oracle lower-bounds the certificate's own change count.
        assert opt is not None and opt <= stream.profile_changes
