"""Tests for the combined algorithm of Section 4."""

import numpy as np
import pytest

from repro.core.combined import CombinedMultiSession
from repro.errors import ConfigError
from repro.sim.engine import run_multi_session
from repro.traffic.base import make_rng
from repro.traffic.feasible import generate_feasible_stream
from repro.params import OfflineConstraints
from repro.verify.certificates import TheoremBounds, certify_multi

B_O = 64.0
D_O = 4
U_O = 0.25
W = 8
K = 4


def make_policy(inner: str = "phased", k: int = K) -> CombinedMultiSession:
    return CombinedMultiSession(
        k,
        offline_bandwidth=B_O,
        offline_delay=D_O,
        offline_utilization=U_O,
        window=W,
        inner=inner,
    )


def certified_split_workload(seed: int = 0, horizon: int = 1500) -> np.ndarray:
    """Aggregate-feasible stream split across sessions with drifting weights."""
    offline = OfflineConstraints(
        bandwidth=B_O, delay=D_O, utilization=U_O, window=W
    )
    aggregate = generate_feasible_stream(
        offline, horizon, segments=5, seed=seed, burstiness="smooth"
    )
    rng = make_rng(seed + 1)
    out = np.zeros((horizon, K))
    weights = rng.dirichlet(np.ones(K))
    for t in range(horizon):
        if t % (4 * D_O) == 0:
            weights = rng.dirichlet(np.ones(K))
        out[t] = aggregate.arrivals[t] * weights
    return out


class TestValidation:
    def test_bad_inner(self):
        with pytest.raises(ConfigError, match="inner"):
            make_policy(inner="nope")

    def test_off_grid_bandwidth(self):
        with pytest.raises(ConfigError, match="quantizer grid"):
            CombinedMultiSession(
                2,
                offline_bandwidth=48.0,
                offline_delay=D_O,
                offline_utilization=U_O,
                window=W,
            )

    def test_window_below_delay(self):
        with pytest.raises(ConfigError, match="W >= D_O"):
            CombinedMultiSession(
                2,
                offline_bandwidth=64.0,
                offline_delay=D_O,
                offline_utilization=U_O,
                window=2,
            )

    def test_bandwidth_slack_by_inner(self):
        assert make_policy("phased").max_bandwidth == 7 * B_O
        assert make_policy("continuous").max_bandwidth == 8 * B_O


class TestGlobalController:
    def test_sessions_shared_with_inner(self):
        policy = make_policy()
        assert policy.sessions is policy.inner.sessions

    def test_b_glob_climbs_power_rungs(self):
        policy = make_policy()
        rng = np.random.default_rng(0)
        seen = set()
        for t in range(200):
            arrivals = [float(rng.poisson(4)) for _ in range(K)]
            policy.step(t, arrivals)
            seen.add(policy.b_glob)
        for level in seen:
            assert level == 2 ** round(np.log2(level))

    def test_b_glob_monotone_within_global_stage(self):
        policy = make_policy()
        rng = np.random.default_rng(1)
        previous = 0.0
        for t in range(300):
            policy.step(t, [float(rng.poisson(3)) for _ in range(K)])
            if policy.resets:
                break
            assert policy.b_glob >= previous
            previous = policy.b_glob

    def test_global_reset_moves_queues_to_global_channel(self):
        policy = make_policy()
        # Trickle to pin high(t) low, then a burst to push low above it.
        for t in range(60):
            policy.step(t, [0.5] * K)
        assert not policy.resets
        policy.step(60, [B_O * D_O / K] * K)
        assert policy.resets == [60]
        # The inner overflow links were cancelled.
        for session in policy.sessions:
            assert session.channels.overflow_link.bandwidth == 0.0
        # The global overflow channel engages while it drains.
        engaged = policy.extra_link.bandwidth
        assert engaged in (0.0, 2 * B_O)

    def test_inner_restart_on_b_glob_change(self):
        policy = make_policy()
        policy.step(0, [1.0] * K)
        stages_before = len(policy.inner.stage_starts)
        # A factor-16 demand jump moves B_glob several rungs at once.
        policy.step(1, [40.0] * K)
        assert policy.b_glob > 2.0
        assert len(policy.inner.stage_starts) > stages_before


class TestSection4Guarantees:
    @pytest.mark.parametrize("inner", ["phased", "continuous"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_guarantees_on_certified_workloads(self, inner, seed):
        arrivals = certified_split_workload(seed=seed)
        policy = make_policy(inner=inner)
        slack = 7.0 if inner == "phased" else 8.0
        trace = run_multi_session(policy, arrivals)
        bounds = TheoremBounds(
            variant="combined",
            offline_bandwidth=B_O,
            offline_delay=D_O,
            # Documented discretization: the global-overflow hand-off can
            # add up to D_O slots beyond the paper's 2·D_O.
            online_delay=2 * D_O + D_O,
            max_bandwidth=slack * B_O,
        )
        report = certify_multi(trace, bounds)
        assert report.certified, report.render()
        assert trace.total_delivered == pytest.approx(trace.total_arrived)
        assert trace.max_total_allocation <= slack * B_O + 1e-6

    def test_global_changes_bounded_by_log_b(self):
        arrivals = certified_split_workload(seed=3)
        policy = make_policy()
        run_multi_session(policy, arrivals)
        global_stages = len(policy.resets) + 1
        log_b = np.log2(B_O)
        assert policy.global_change_count <= 2 * log_b * global_stages + 2

    def test_conservation_across_global_resets(self):
        policy = make_policy()
        arrivals = np.zeros((200, K))
        arrivals[:60] = 0.5
        arrivals[60] = B_O * D_O / K  # force a GLOBAL RESET
        arrivals[61:120] = 0.5
        arrivals[120] = B_O * D_O / K  # and another
        trace = run_multi_session(policy, arrivals)
        assert trace.total_delivered == pytest.approx(trace.total_arrived)
        assert len(policy.resets) >= 1

    def test_stolen_bits_stay_in_session_backlogs(self):
        """Bits a GLOBAL RESET moves to the global overflow queue are still
        queued: the trace's per-session backlog counts them until served."""
        policy = make_policy()
        arrivals = np.zeros((200, K))
        arrivals[:60] = 0.5
        arrivals[60:63] = 2 * B_O * D_O / K  # more than 2·B_O per slot
        trace = run_multi_session(policy, arrivals)
        assert policy.resets[:2] == [60, 61]
        kept = np.cumsum(arrivals, axis=0) - np.cumsum(trace.delivered, axis=0)
        np.testing.assert_allclose(trace.backlog, kept, atol=1e-9)
        bounds = TheoremBounds(
            variant="combined",
            offline_bandwidth=B_O,
            offline_delay=D_O,
            online_delay=2 * D_O + D_O,
            max_bandwidth=7.0 * B_O,
            assume_feasible=False,
        )
        (check,) = [c for c in certify_multi(trace, bounds).checks if c.name == "conservation"]
        assert check.passed, check.detail
