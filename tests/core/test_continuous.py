"""Tests for the continuous multi-session algorithm (Figure 5 / Theorem 17)."""

import numpy as np
import pytest

from repro.core.continuous import ContinuousMultiSession
from repro.errors import ConfigError
from repro.sim.engine import run_multi_session
from repro.traffic.multi import generate_multi_feasible
from repro.verify.certificates import certify_multi, continuous_bounds

B_O = 32.0
D_O = 4
K = 4


def make_policy(k: int = K, fifo: bool = False) -> ContinuousMultiSession:
    return ContinuousMultiSession(
        k, offline_bandwidth=B_O, offline_delay=D_O, fifo=fifo
    )


def certified_workload(k: int = K, seed: int = 0, horizon: int = 1600):
    return generate_multi_feasible(
        k,
        offline_bandwidth=B_O,
        offline_delay=D_O,
        horizon=horizon,
        segments=5,
        seed=seed,
        concentration=0.7,
        burstiness="blocks",
    )


def _state(policy: ContinuousMultiSession) -> tuple:
    """Every session's queues, links and counters, and its REDUCE timers."""
    sessions = [
        (
            [list(c) for c in s.channels.regular_queue._chunks],
            [list(c) for c in s.channels.overflow_queue._chunks],
            s.channels.regular_link.bandwidth,
            s.channels.overflow_link.bandwidth,
            s.channels.change_count,
            s.bits_arrived,
            s.bits_delivered,
        )
        for s in policy.sessions
    ]
    timers = [[due for due, _, _ in events._heap] for events in policy._reductions]
    return sessions, timers, list(policy.resets)


class TestValidation:
    def test_bad_parameters(self):
        with pytest.raises(ConfigError):
            ContinuousMultiSession(2, offline_bandwidth=-1, offline_delay=1)
        with pytest.raises(ConfigError):
            ContinuousMultiSession(2, offline_bandwidth=1, offline_delay=0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_non_finite_or_negative_arrivals_rejected(self, bad):
        # A rejected step changes nothing. A fresh policy would start up;
        # a backlogged one has a REDUCE due and would push and TEST the
        # sessions before the bad one.
        fresh = make_policy()
        with pytest.raises(ConfigError, match="finite and >= 0"):
            fresh.step(0, [1.0, 0.0, 0.0, bad])
        assert fresh.stage_starts == [] and fresh.local_change_count == 0
        assert all(s.channels.regular_queue.is_empty for s in fresh.sessions)
        policy = make_policy()
        policy.step(0, [200.0, 0.0, 0.0, 0.0])
        due = policy._reductions[0].next_due()
        assert due is not None
        for t in range(1, due):
            policy.step(t, [0.0, 0.0, 0.0, 0.0])
        before = _state(policy)
        with pytest.raises(ConfigError):
            policy.step(due, [200.0, 200.0, 200.0, bad])
        assert _state(policy) == before

    def test_derived_quantities(self):
        policy = make_policy()
        assert policy.max_bandwidth == 5 * B_O
        assert policy.quantum == B_O / K


class TestTestAndReduce:
    def test_test_fires_on_demand_not_on_schedule(self):
        policy = make_policy()
        quantum = B_O / K
        # One slot with a burst exceeding quantum * D_O triggers TEST
        # immediately (no waiting for a phase boundary).
        policy.step(0, [quantum * D_O + 5.0, 0.0, 0.0, 0.0])
        channels = policy.sessions[0].channels
        assert channels.regular_link.bandwidth == pytest.approx(2 * quantum)
        assert channels.regular_queue.is_empty  # moved to overflow

    def test_small_arrivals_do_not_trigger(self):
        policy = make_policy()
        policy.step(0, [1.0] * K)
        for session in policy.sessions:
            assert session.channels.regular_link.bandwidth == pytest.approx(
                B_O / K
            )
        assert policy.pending_reductions == 0

    def test_reduce_returns_bandwidth_after_d_o(self):
        policy = make_policy()
        quantum = B_O / K
        burst = quantum * D_O + 8.0
        policy.step(0, [burst, 0.0, 0.0, 0.0])
        raised = policy.sessions[0].channels.overflow_link.bandwidth
        assert raised > 0
        assert policy.pending_reductions == 1
        for t in range(1, D_O):
            policy.step(t, [0.0] * K)
            assert policy.sessions[0].channels.overflow_link.bandwidth == raised
        policy.step(D_O, [0.0] * K)
        assert policy.sessions[0].channels.overflow_link.bandwidth == 0.0
        assert policy.pending_reductions == 0

    def test_overlapping_reduces_stack(self):
        policy = make_policy()
        quantum = B_O / K
        burst = quantum * D_O + 8.0
        policy.step(0, [burst, 0.0, 0.0, 0.0])
        first = policy.sessions[0].channels.overflow_link.bandwidth
        policy.step(1, [burst * 2, 0.0, 0.0, 0.0])
        second = policy.sessions[0].channels.overflow_link.bandwidth
        assert second > first
        assert policy.pending_reductions == 2
        # After both timers fire the overflow allocation returns to zero.
        for t in range(2, D_O + 2):
            policy.step(t, [0.0] * K)
        assert policy.sessions[0].channels.overflow_link.bandwidth == pytest.approx(
            0.0
        )

    def test_stage_reset_when_regular_blows_cap(self):
        policy = make_policy()
        horizon = 60 * D_O
        arrivals = np.zeros((horizon, K))
        for t in range(horizon):
            arrivals[t, (t // (3 * D_O)) % K] = B_O * 0.9
        trace = run_multi_session(policy, arrivals)
        assert trace.completed_stages >= 1
        reset_slot = policy.resets[0]
        np.testing.assert_allclose(
            trace.regular_allocation[reset_slot], B_O / K
        )


class TestTheorem17Guarantees:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_guarantees_on_certified_workloads(self, seed):
        workload = certified_workload(seed=seed)
        policy = make_policy()
        trace = run_multi_session(policy, workload.arrivals)
        # Delay 2·D_O, B_A = 5·B_O, overflow <= 3·B_O, regular cap, Claim 9.
        report = certify_multi(
            trace, continuous_bounds(B_O, D_O, K), profiles=workload.profiles
        )
        assert report.certified, report.render()
        assert trace.max_delay <= 2 * D_O
        assert trace.max_total_allocation <= 5 * B_O + 1e-6

    def test_changes_per_stage_linear_in_k(self):
        for k in (2, 4, 8):
            workload = generate_multi_feasible(
                k,
                offline_bandwidth=B_O,
                offline_delay=D_O,
                horizon=1600,
                segments=5,
                seed=k + 10,
                concentration=0.7,
            )
            policy = ContinuousMultiSession(
                k, offline_bandwidth=B_O, offline_delay=D_O
            )
            trace = run_multi_session(policy, workload.arrivals)
            stages = trace.completed_stages + 1
            # TEST + spill + REDUCE triple per increment: O(k) per stage.
            assert trace.local_change_count <= 8 * k * stages

    def test_fifo_mode(self):
        workload = certified_workload(seed=3)
        policy = make_policy(fifo=True)
        trace = run_multi_session(policy, workload.arrivals)
        assert trace.max_delay <= 2 * D_O
        assert trace.total_delivered == pytest.approx(trace.total_arrived)
