"""Tests for the Theorem 7 reconstruction."""

import math

import numpy as np
import pytest

from repro.core.modified_single import ModifiedSingleSessionOnline
from repro.core.single_session import SingleSessionOnline
from repro.params import OfflineConstraints
from repro.sim.engine import run_single_session
from repro.traffic.feasible import generate_feasible_stream
from repro.verify.certificates import TheoremBounds, certify_single

B_A = 1024.0
D_O = 4
W = 8


def make_modified(utilization: float, **overrides) -> ModifiedSingleSessionOnline:
    config = dict(
        max_bandwidth=B_A,
        offline_delay=D_O,
        offline_utilization=utilization,
        window=W,
    )
    config.update(overrides)
    return ModifiedSingleSessionOnline(**config)


class TestLadderStructure:
    def test_coarse_base_follows_utilization(self):
        assert make_modified(1 / 16).early_quantizer.base == 16.0
        assert make_modified(0.9).early_quantizer.base == 2.0

    def test_early_target_is_coarse(self):
        policy = make_modified(1 / 16)
        # First slot of a stage: low = 48/(1+4) = 9.6 -> coarse ladder 16.
        assert policy.decide(0, 48.0, 0.0) == 16.0

    def test_mature_target_is_fine(self):
        policy = make_modified(1 / 16)
        # Warm up past the window with a steady rate, then nudge low up:
        for t in range(W + 2):
            policy.decide(t, 10.0, 0.0)
        bandwidth = policy.decide(W + 2, 12.0, 0.0)
        # Fine (power-of-two) grid after maturity.
        assert math.log2(bandwidth) == int(math.log2(bandwidth))

    def test_early_target_clamped_to_max(self):
        policy = make_modified(1 / 16)
        bandwidth = policy.decide(0, B_A * (1 + D_O), 0.0)
        assert bandwidth <= B_A


class TestBudgetAndGuarantees:
    @pytest.mark.parametrize("utilization", [1 / 4, 1 / 16, 1 / 64])
    def test_per_stage_budget(self, utilization):
        offline = OfflineConstraints(
            bandwidth=B_A, delay=D_O, utilization=utilization, window=W
        )
        stream = generate_feasible_stream(
            offline, horizon=3000, segments=8, seed=11, burstiness="blocks"
        )
        policy = make_modified(utilization)
        run_single_session(policy, stream.arrivals)
        base = max(2.0, 1.0 / utilization)
        budget = math.log(B_A, base) + math.log2(2.0 / utilization) + 3
        assert policy.max_changes_per_stage <= budget

    def test_delay_and_bandwidth_guarantees(self):
        offline = OfflineConstraints(
            bandwidth=B_A, delay=D_O, utilization=1 / 16, window=W
        )
        stream = generate_feasible_stream(offline, horizon=2000, segments=6, seed=3)
        policy = make_modified(1 / 16)
        trace = run_single_session(policy, stream.arrivals)
        bounds = TheoremBounds(
            variant="single",
            offline_bandwidth=B_A,
            offline_delay=D_O,
            online_delay=2 * D_O,
            max_bandwidth=B_A,
        )
        checks = {c.name: c for c in certify_single(trace, bounds).checks}
        assert checks["lemma3"].passed
        assert checks["max-bandwidth"].passed

    def test_never_worse_than_fig3_on_doubling_burst(self):
        """The coarse early ladder pays fewer changes on a cold-start burst
        ramp than the fine power-of-two ladder."""
        arrivals = np.zeros(300)
        size = 1.0
        t = 0
        while t < 300 and size <= B_A * D_O:
            arrivals[t] = size
            size *= 2
            t += 3 * D_O
        plain = SingleSessionOnline(
            max_bandwidth=B_A, offline_delay=D_O, offline_utilization=1 / 16, window=W
        )
        modified = make_modified(1 / 16)
        plain_trace = run_single_session(plain, arrivals)
        modified_trace = run_single_session(modified, arrivals)
        assert modified_trace.change_count <= plain_trace.change_count

    def test_degenerates_to_fig3_at_high_utilization(self):
        """U_O >= 1/2 -> coarse base is 2: identical decisions to Fig. 3."""
        offline = OfflineConstraints(
            bandwidth=64.0, delay=D_O, utilization=0.5, window=W
        )
        stream = generate_feasible_stream(
            offline, horizon=1500, segments=4, seed=5
        )
        plain = SingleSessionOnline(
            max_bandwidth=64.0, offline_delay=D_O, offline_utilization=0.5, window=W
        )
        modified = ModifiedSingleSessionOnline(
            max_bandwidth=64.0, offline_delay=D_O, offline_utilization=0.5, window=W
        )
        plain_trace = run_single_session(plain, stream.arrivals)
        modified_trace = run_single_session(modified, stream.arrivals)
        np.testing.assert_allclose(plain_trace.allocation, modified_trace.allocation)
