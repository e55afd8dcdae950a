"""Failure injection: what happens when the feasibility assumption breaks.

The paper assumes every input stream is feasible (footnote 1).  These
tests deliberately violate that and verify the library fails *loudly and
safely*: the Claim 9 certificate pinpoints the violation, policies never
crash or lose bits, and the delay guarantees are the only casualties.
"""

import numpy as np
import pytest

from repro.core.continuous import ContinuousMultiSession
from repro.core.phased import PhasedMultiSession
from repro.core.single_session import SingleSessionOnline
from repro.sim.engine import run_multi_session, run_single_session
from repro.verify.certificates import (
    certify_single,
    claim9_series,
    claim9_violations,
    raw_single_bounds,
)

B_A = 64.0
D_O = 4
U_O = 0.25
W = 8


def overload_stream(factor: float, horizon: int = 400) -> np.ndarray:
    """Sustained demand at ``factor · B_A`` — infeasible for factor > 1."""
    return np.full(horizon, factor * B_A)


class TestSingleSessionOverload:
    def test_claim9_monitor_pinpoints_violation(self):
        policy = SingleSessionOnline(
            max_bandwidth=B_A, offline_delay=D_O, offline_utilization=U_O, window=W
        )
        trace = run_single_session(policy, overload_stream(1.5))
        excess, cumulative = claim9_series(trace.arrivals, B_A, D_O)
        # 1.5·B_A per slot outruns the (Δ + D_O)·B_A envelope once
        # 0.5·B_A·(t + 1) exceeds D_O·B_A: first at t = 8.
        first = claim9_violations(excess, cumulative)[0]
        assert first == 8
        assert excess[first] == pytest.approx(32.0)

    def test_policy_survives_overload_without_monitor(self):
        """No crash, bits conserved, bandwidth cap respected — only the
        delay guarantee (which assumed feasibility) degrades."""
        policy = SingleSessionOnline(
            max_bandwidth=B_A, offline_delay=D_O, offline_utilization=U_O, window=W
        )
        arrivals = overload_stream(1.25, horizon=200)
        trace = run_single_session(policy, arrivals)
        report = certify_single(trace, raw_single_bounds(B_A, D_O))
        assert report.certified  # the bandwidth cap among them
        assert trace.total_delivered == pytest.approx(trace.total_arrived)
        assert trace.max_delay > 2 * D_O  # the guarantee genuinely needed feasibility

    def test_single_mega_burst_is_flushed_at_max_bandwidth(self):
        policy = SingleSessionOnline(
            max_bandwidth=B_A, offline_delay=D_O, offline_utilization=U_O, window=W
        )
        arrivals = np.zeros(100)
        arrivals[10] = 20 * B_A * D_O  # far beyond the Claim 9 envelope
        trace = run_single_session(policy, arrivals)
        assert trace.total_delivered == pytest.approx(trace.total_arrived)
        # The flush runs at full bandwidth (RESET behaviour).
        assert trace.max_allocation == B_A


class TestMultiSessionOverload:
    @pytest.mark.parametrize("factory", [PhasedMultiSession, ContinuousMultiSession])
    def test_no_crash_and_conservation(self, factory):
        k = 4
        policy = factory(k, offline_bandwidth=B_A, offline_delay=D_O)
        rng = np.random.default_rng(0)
        arrivals = rng.poisson(B_A, size=(300, k)).astype(float)  # ~4x overload
        trace = run_multi_session(policy, arrivals, max_drain_slots=20_000)
        assert trace.total_delivered == pytest.approx(trace.total_arrived)

    @pytest.mark.parametrize("factory", [PhasedMultiSession, ContinuousMultiSession])
    def test_regular_cap_structural_overflow_cap_is_not(self, factory):
        """Under infeasible load the *regular* channel still respects its
        structural cap (2·B_O plus one quantum), but the *overflow* channel
        can exceed its Lemma 10/16 bound — those lemmas genuinely depend on
        the Claim 9 feasibility envelope."""
        k = 4
        overflow_slack = 2.0 if factory is PhasedMultiSession else 3.0
        policy = factory(k, offline_bandwidth=B_A, offline_delay=D_O)
        arrivals = np.full((200, k), B_A)  # every session demands B_O: 4x load
        trace = run_multi_session(policy, arrivals, max_drain_slots=50_000)
        regular_cap = 2 * B_A + B_A / k
        assert trace.regular_allocation.sum(axis=1).max() <= regular_cap + 1e-6
        assert (
            trace.overflow_allocation.sum(axis=1).max()
            > overflow_slack * B_A
        ), "with feasibility broken, the overflow bound should break too"

    def test_hopping_overload_churns_stages(self):
        """An overloaded load that also hops between sessions drives many
        stage resets but never breaks conservation."""
        k = 4
        policy = PhasedMultiSession(k, offline_bandwidth=B_A, offline_delay=D_O)
        horizon = 400
        arrivals = np.zeros((horizon, k))
        for t in range(horizon):
            arrivals[t, (t // 8) % k] = 2 * B_A
        trace = run_multi_session(policy, arrivals, max_drain_slots=20_000)
        assert trace.completed_stages >= 2
        assert trace.total_delivered == pytest.approx(trace.total_arrived)


class TestDegenerateInputs:
    def test_all_silent_stream(self):
        policy = SingleSessionOnline(
            max_bandwidth=B_A, offline_delay=D_O, offline_utilization=U_O, window=W
        )
        trace = run_single_session(policy, np.zeros(100))
        assert trace.total_delivered == 0.0
        assert trace.max_delay == 0

    def test_single_bit(self):
        policy = SingleSessionOnline(
            max_bandwidth=B_A, offline_delay=D_O, offline_utilization=U_O, window=W
        )
        arrivals = np.zeros(50)
        arrivals[25] = 1.0
        trace = run_single_session(policy, arrivals)
        assert trace.total_delivered == pytest.approx(1.0)
        assert trace.max_delay <= 2 * D_O

    def test_fractional_dust_everywhere(self):
        policy = SingleSessionOnline(
            max_bandwidth=B_A, offline_delay=D_O, offline_utilization=U_O, window=W
        )
        trace = run_single_session(policy, np.full(200, 1e-6))
        assert trace.total_delivered == pytest.approx(trace.total_arrived, rel=1e-6)
