"""Tests for the phased multi-session algorithm (Figure 4 / Theorem 14)."""

import numpy as np
import pytest

from repro.core.offline_multi import multi_stage_lower_bound
from repro.core.phased import PhasedMultiSession
from repro.errors import ConfigError
from repro.network.queue import EPSILON
from repro.sim.engine import run_multi_session
from repro.traffic.multi import generate_multi_feasible
from repro.verify.certificates import certify_multi, phased_bounds

B_O = 32.0
D_O = 4
K = 4


def make_policy(k: int = K, fifo: bool = False) -> PhasedMultiSession:
    return PhasedMultiSession(
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


def _state(policy: PhasedMultiSession) -> tuple:
    """Every session's queues, links and counters, and the phase clock."""
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
    return sessions, list(policy.phase_boundaries), policy._next_boundary, list(policy.resets)


class TestValidation:
    def test_bad_parameters(self):
        with pytest.raises(ConfigError):
            PhasedMultiSession(0, offline_bandwidth=1, offline_delay=1)
        with pytest.raises(ConfigError):
            PhasedMultiSession(2, offline_bandwidth=0, offline_delay=1)
        with pytest.raises(ConfigError):
            PhasedMultiSession(2, offline_bandwidth=1, offline_delay=0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_non_finite_or_negative_arrivals_rejected(self, bad):
        # A rejected step changes nothing. A fresh policy would start up;
        # a backlogged one is at a phase end that grows session 0 and
        # would push the other sessions.
        fresh = make_policy()
        with pytest.raises(ConfigError, match="finite and >= 0"):
            fresh.step(0, [1.0, 0.0, 0.0, bad])
        assert fresh.stage_starts == [] and fresh.local_change_count == 0
        assert all(s.channels.regular_queue.is_empty for s in fresh.sessions)
        policy = make_policy()
        for t in range(D_O):
            policy.step(t, [50.0, 0.0, 0.0, 0.0])
        before = _state(policy)
        with pytest.raises(ConfigError):
            policy.step(D_O, [50.0, 50.0, 50.0, bad])
        assert _state(policy) == before

    def test_derived_quantities(self):
        policy = make_policy()
        assert policy.quantum == B_O / K
        assert policy.regular_cap == 2 * B_O
        assert policy.max_bandwidth == 4 * B_O


class TestMechanics:
    def test_initial_reset_gives_equal_quanta(self):
        policy = make_policy()
        policy.step(0, [0.0] * K)
        for session in policy.sessions:
            assert session.channels.regular_link.bandwidth == B_O / K
        assert policy.stage_starts == [0]
        assert policy.resets == []

    def test_phase_boundaries_every_d_o(self):
        policy = make_policy()
        for t in range(3 * D_O + 1):
            policy.step(t, [1.0] * K)
        assert policy.phase_boundaries == [D_O, 2 * D_O, 3 * D_O]

    def test_overloaded_session_gets_increment_and_overflow(self):
        policy = make_policy()
        quantum = B_O / K
        # Flood session 0 well past quantum * D_O before the first boundary.
        for t in range(D_O):
            policy.step(t, [quantum * 4, 0.0, 0.0, 0.0])
        policy.step(D_O, [0.0] * K)
        channels = policy.sessions[0].channels
        assert channels.regular_link.bandwidth == pytest.approx(2 * quantum)
        # Its backlog moved to overflow, sized to drain within D_O: the
        # 128 arrived bits minus 4 slots of quantum service = 96 moved,
        # so B_o = 96 / D_O = 24 (one slot of which has already served).
        assert channels.regular_queue.is_empty
        assert channels.overflow_link.bandwidth == pytest.approx(24.0)
        assert channels.overflow_queue.size == pytest.approx(96.0 - 24.0)

    def test_overflow_zeroed_when_keeping_up(self):
        policy = make_policy()
        quantum = B_O / K
        for t in range(D_O):
            policy.step(t, [quantum * 4, 0.0, 0.0, 0.0])
        policy.step(D_O, [0.0] * K)  # increment + move to overflow
        for t in range(D_O + 1, 2 * D_O):
            policy.step(t, [0.0] * K)
        policy.step(2 * D_O, [0.0] * K)  # kept up -> overflow zeroed
        channels = policy.sessions[0].channels
        assert channels.overflow_link.bandwidth == 0.0
        assert channels.overflow_queue.is_empty

    def test_claim8_invariant_overflow_always_drainable(self):
        """Claim 8's observable consequence: the overflow queue never holds
        more than its allocation can drain within one phase, and a zeroed
        overflow allocation implies an empty overflow queue."""
        workload = certified_workload(seed=2)
        policy = make_policy()
        horizon = workload.arrivals.shape[0]
        for t in range(horizon):
            policy.step(t, list(workload.arrivals[t]))
            for session in policy.sessions:
                channels = session.channels
                assert (
                    channels.overflow_queue.size
                    <= channels.overflow_link.bandwidth * D_O + 1e-6
                )
                if channels.overflow_link.bandwidth == 0.0:
                    assert channels.overflow_queue.is_empty

    def test_stage_reset_on_regular_overflow(self):
        """Shifting the whole load between sessions forces stage resets."""
        policy = make_policy()
        horizon = 40 * D_O
        arrivals = np.zeros((horizon, K))
        # Rotate a heavy B_O-rate load across sessions.
        for t in range(horizon):
            arrivals[t, (t // (4 * D_O)) % K] = B_O * 0.9
        trace = run_multi_session(policy, arrivals)
        assert trace.completed_stages >= 1
        # After a reset, regular allocations return to B_O / k.
        reset_slot = policy.resets[0]
        regular_after = trace.regular_allocation[reset_slot]
        np.testing.assert_allclose(regular_after, B_O / K)


class TestTheorem14Guarantees:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_guarantees_on_certified_workloads(self, seed):
        workload = certified_workload(seed=seed)
        policy = make_policy()
        trace = run_multi_session(policy, workload.arrivals)
        # Delay 2·D_O, B_A = 4·B_O, overflow <= 2·B_O, regular cap, Claim 9.
        report = certify_multi(
            trace, phased_bounds(B_O, D_O, K), profiles=workload.profiles
        )
        assert report.certified, report.render()
        assert trace.max_delay <= 2 * D_O
        assert trace.max_total_allocation <= 4 * B_O + 1e-6

    def test_changes_per_stage_linear_in_k(self):
        for k in (2, 4, 8):
            workload = generate_multi_feasible(
                k,
                offline_bandwidth=B_O,
                offline_delay=D_O,
                horizon=1600,
                segments=5,
                seed=k,
                concentration=0.7,
            )
            policy = PhasedMultiSession(
                k, offline_bandwidth=B_O, offline_delay=D_O
            )
            trace = run_multi_session(policy, workload.arrivals)
            stages = trace.completed_stages + 1
            assert trace.local_change_count <= 6 * k * stages

    def test_lower_bound_consistent_with_certificate(self):
        workload = certified_workload(seed=4)
        lower = multi_stage_lower_bound(workload.arrivals, B_O, D_O)
        assert lower <= workload.profile_changes + 1


class TestFifoMode:
    def test_fifo_preserves_delay_bound_and_order(self):
        workload = certified_workload(seed=5)
        policy = make_policy(fifo=True)
        trace = run_multi_session(policy, workload.arrivals)
        assert trace.max_delay <= 2 * D_O
        assert trace.total_delivered == pytest.approx(trace.total_arrived)
