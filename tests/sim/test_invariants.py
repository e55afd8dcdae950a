"""The paper's runtime invariants, checked by certificate replay.

Each case drives a trace that breaks (or exactly meets) one invariant and
asserts the certificate's verdict.  A failing check's first counterexample
(or, for the single-session Claim 9 envelope, the first slot
:func:`claim9_violations` returns) names the slot where the invariant
first broke: the slot a per-slot check inside the run loop would have
stopped at.
"""

import numpy as np
import pytest

from repro.core.baselines import EqualSplitMultiSession, StaticAllocator
from repro.sim.engine import run_multi_session, run_single_session
from repro.sim.recorder import MultiSessionTrace, SingleSessionTrace
from repro.verify.certificates import (
    TheoremBounds,
    certify_multi,
    certify_single,
    claim2_margins,
    claim9_series,
    claim9_violations,
    phased_bounds,
    replay_fifo_service,
)


def _bounds(online_delay=4, max_bandwidth=None, bandwidth=4.0, delay=2):
    return TheoremBounds(
        variant="single",
        offline_bandwidth=bandwidth,
        offline_delay=delay,
        online_delay=online_delay,
        max_bandwidth=max_bandwidth,
    )


def _check(report, name):
    (check,) = [c for c in report.checks if c.name == name]
    return check


def _single_trace(arrivals, allocation, delivered, backlog, histogram=None):
    allocation = np.asarray(allocation, dtype=float)
    return SingleSessionTrace(
        arrivals=np.asarray(arrivals, dtype=float),
        allocation=allocation,
        delivered=np.asarray(delivered, dtype=float),
        backlog=np.asarray(backlog, dtype=float),
        delay_histogram=histogram or {},
        changes=[],
        stage_starts=[],
        resets=[],
        horizon=len(allocation),
    )


def _multi_trace(regular, overflow, extra=None):
    regular = np.asarray(regular, dtype=float)
    slots, k = regular.shape
    zeros = np.zeros((slots, k))
    return MultiSessionTrace(
        arrivals=zeros,
        regular_allocation=regular,
        overflow_allocation=np.asarray(overflow, dtype=float),
        delivered=zeros,
        backlog=zeros,
        extra_allocation=np.zeros(slots) if extra is None else np.asarray(extra, dtype=float),
        delay_histograms=[{} for _ in range(k)],
        local_changes=[],
        extra_changes=[],
        stage_starts=[],
        resets=[],
        horizon=slots,
    )


class TestClaim2Monitor:
    def test_pass_and_margin(self):
        trace = run_single_session(StaticAllocator(3.0), [10.0], drain=False)
        margin, queue = claim2_margins(trace, online_delay=4)
        assert queue[0] == 10.0
        assert margin.min() == pytest.approx(2.0)
        check = _check(certify_single(trace, _bounds()), "claim2")
        assert check.passed and check.margin == pytest.approx(2.0)

    def test_violation(self):
        trace = run_single_session(
            StaticAllocator(1.0), [0.0, 0.0, 0.0, 10.0], drain=False
        )
        check = _check(certify_single(trace, _bounds()), "claim2")
        assert check.passed is False
        assert check.counterexamples[0].t == 3


class TestClaim9Monitor:
    def test_within_envelope(self):
        excess, _ = claim9_series(np.full(20, 4.0), 4.0, 2)
        assert excess.max() <= 0

    def test_burst_at_limit_passes(self):
        # One burst of (1 + D_O) * B_O = 12 bits in one slot is exactly legal.
        excess, cumulative = claim9_series([12.0], 4.0, 2)
        assert excess[0] == 0.0
        assert claim9_violations(excess, cumulative).size == 0

    def test_violation_detected(self):
        excess, cumulative = claim9_series([4.0, 4.0, 4.0, 13.0], 4.0, 2)
        assert claim9_violations(excess, cumulative).tolist() == [3]
        assert excess[3] == pytest.approx(1.0)

    def test_multi_aggregates_sessions(self):
        policy = EqualSplitMultiSession(2, offline_bandwidth=100.0)
        trace = run_multi_session(policy, [[2.0, 2.0], [7.0, 7.0]])
        check = _check(certify_multi(trace, phased_bounds(4.0, 2, 2)), "claim9")
        assert check.passed is False
        assert check.counterexamples[0].t == 1


class TestBandwidthMonitors:
    def test_max_bandwidth_single(self):
        at_cap = run_single_session(StaticAllocator(2.0), [1.0])
        bounds = _bounds(max_bandwidth=2.0)
        assert _check(certify_single(at_cap, bounds), "max-bandwidth").passed
        over = run_single_session(StaticAllocator(2.5), [1.0])
        check = _check(certify_single(over, bounds), "max-bandwidth")
        assert check.passed is False
        assert check.counterexamples[0].t == 0

    def test_max_bandwidth_multi_sums_channels(self):
        trace = _multi_trace(
            regular=[[1, 1], [1, 1], [2, 1]],
            overflow=[[0, 0], [1, 0], [1, 0]],
            extra=[0, 0, 1],
        )
        bounds = TheoremBounds(
            variant="phased", offline_bandwidth=1.0, offline_delay=2,
            online_delay=4, max_bandwidth=4.0,
        )
        check = _check(certify_multi(trace, bounds), "max-bandwidth")
        assert check.passed is False
        assert [c.t for c in check.counterexamples] == [2]

    def test_overflow_bound(self):
        trace = _multi_trace(regular=[[0], [0]], overflow=[[8.0], [8.1]])
        bounds = TheoremBounds(
            variant="phased", offline_bandwidth=4.0, offline_delay=2,
            online_delay=4, overflow_factor=2.0,
        )
        check = _check(certify_multi(trace, bounds), "lemma10-16")
        assert check.passed is False
        assert [c.t for c in check.counterexamples] == [1]

    def test_regular_bound_allows_one_quantum(self):
        # 2·B_O + B_O/k = 9 with B_O = 4, k = 4.
        trace = _multi_trace(regular=[[9.0], [9.2]], overflow=[[0], [0]])
        check = _check(certify_multi(trace, phased_bounds(4.0, 2, 4)), "regular-cap")
        assert check.passed is False
        assert [c.t for c in check.counterexamples] == [1]


class TestDelayMonitor:
    def test_tracks_max(self):
        service = replay_fifo_service([1.0, 0, 0, 0], [0, 0, 0, 1.0])
        assert service.max_delay == 3
        assert service.histogram == {3: 1.0}

    def test_violation_with_slack(self):
        # D_A = 2 with one slot of slack: a delay of 4 is late.
        trace = _single_trace(
            arrivals=[1.0, 0, 0, 0, 0],
            allocation=[0, 0, 0, 0, 1.0],
            delivered=[0, 0, 0, 0, 1.0],
            backlog=[1.0, 1.0, 1.0, 1.0, 0],
            histogram={4: 1.0},
        )
        check = _check(certify_single(trace, _bounds(online_delay=3)), "lemma3")
        assert check.passed is False
        assert [c.t for c in check.counterexamples] == [4]
        assert check.counterexamples[0].values["delay"] == 4.0


def _starved_trace():
    """Claim 2 fails at t=5 (slack -8) and t=9 (slack -50) with D_A = 2."""
    arrivals = np.zeros(10)
    arrivals[5] = 10.0
    arrivals[9] = 40.0
    allocation = np.zeros(10)
    allocation[5] = 1.0
    allocation[6:9] = 5.0
    backlog = np.zeros(10)
    backlog[5:9] = 10.0
    backlog[9] = 50.0
    return _single_trace(arrivals, allocation, np.zeros(10), backlog)


class TestSoftMonitoring:
    """A certificate collects every violation instead of stopping at one."""

    def test_record_mode_collects_instead_of_raising(self):
        report = certify_single(_starved_trace(), _bounds(online_delay=2))
        check = _check(report, "claim2")
        assert check.passed is False
        assert check.margin < 0
        assert check.counterexamples

    def test_soften_shares_one_log_across_monitors(self):
        trace = run_single_session(StaticAllocator(5.0), [0.0, 100.0], drain=False)
        report = certify_single(trace, _bounds(online_delay=2, max_bandwidth=2.0))
        failed = {check.name for check in report.failures}
        assert {"claim2", "max-bandwidth"} <= failed

    def test_first_time_and_max_severity(self):
        report = certify_single(_starved_trace(), _bounds(online_delay=2))
        check = _check(report, "claim2")
        assert [c.t for c in check.counterexamples] == [5, 9]
        assert check.margin == pytest.approx(-50.0)
