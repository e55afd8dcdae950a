"""Tests for the Figure 3 single-session algorithm.

Covers the stage machinery, Theorem 6's three guarantees on certified
feasible streams (delay, utilization, per-stage changes), Claim 2 as a
runtime invariant, and hypothesis-driven randomized workloads.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.powers import GeometricQuantizer
from repro.core.single_session import SingleSessionOnline
from repro.errors import ConfigError
from repro.params import OfflineConstraints
from repro.sim.engine import run_single_session
from repro.traffic.feasible import generate_feasible_stream
from repro.verify.certificates import (
    certify_single,
    claim2_margins,
    claim2_violations,
    min_existential_window_utilization,
    single_session_bounds,
)

B_A = 64.0
D_O = 4
U_O = 0.25
W = 8


def make_policy(**overrides) -> SingleSessionOnline:
    config = dict(
        max_bandwidth=B_A,
        offline_delay=D_O,
        offline_utilization=U_O,
        window=W,
    )
    config.update(overrides)
    return SingleSessionOnline(**config)


class TestValidation:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_non_finite_or_negative_arrivals_rejected(self, bad):
        policy = make_policy()
        policy.decide(0, 1.0, 0.0)
        with pytest.raises(ConfigError, match="finite and >= 0"):
            policy.decide(1, bad, 0.0)

    def test_window_below_delay_rejected(self):
        with pytest.raises(ConfigError, match="W >= D_O"):
            make_policy(window=2)

    def test_off_grid_max_bandwidth_rejected(self):
        with pytest.raises(ConfigError, match="quantizer grid"):
            make_policy(max_bandwidth=48.0)

    def test_geometric_grid_accepts_its_powers(self):
        policy = make_policy(
            max_bandwidth=81.0, quantizer=GeometricQuantizer(3.0)
        )
        assert policy.max_bandwidth == 81.0

    def test_grid_without_finite_levels_rejected(self):
        """The stage kernel walks the rung ladder grid point by grid point."""

        class NoGrid:
            """Allocates exactly the demand: no ladder of levels."""

            def __call__(self, x):
                return max(0.0, x)

            def levels(self, max_bandwidth):
                raise ConfigError("unbounded levels")

        with pytest.raises(ConfigError, match="unbounded levels"):
            make_policy(quantizer=NoGrid())

    def test_derived_guarantees(self):
        policy = make_policy()
        assert policy.online_delay == 2 * D_O
        assert policy.online_utilization == pytest.approx(U_O / 3)


class TestStageMechanics:
    def test_starts_in_stage_with_quantized_low(self):
        policy = make_policy()
        bandwidth = policy.decide(0, 10.0, 0.0)
        # low(0) = 10 / (1 + D_O) = 2 -> power of two 2.
        assert bandwidth == 2.0
        assert policy.stage_starts == [0]
        assert policy.resets == []

    def test_allocation_monotone_within_stage(self):
        policy = make_policy()
        rng = np.random.default_rng(3)
        previous = 0.0
        for t in range(200):
            bandwidth = policy.decide(t, float(rng.poisson(4)), 0.0)
            if policy.resets:
                break
            assert bandwidth >= previous
            assert bandwidth == 0.0 or math.frexp(bandwidth)[0] == 0.5
            previous = bandwidth

    def test_trickle_then_burst_forces_reset(self):
        """Tiny steady demand then a huge burst ends the stage."""
        policy = make_policy()
        arrivals = [1.0] * 50 + [B_A * D_O] + [0.0] * 30
        trace = run_single_session(policy, arrivals)
        assert trace.completed_stages >= 1
        # During the RESET the allocation is B_A.
        reset_slot = policy.resets[0]
        assert trace.allocation[reset_slot] == B_A

    def test_new_stage_after_drain(self):
        policy = make_policy()
        arrivals = [1.0] * 50 + [B_A * D_O] + [0.0] * 50 + [1.0] * 20
        run_single_session(policy, arrivals)
        assert len(policy.stage_starts) >= 2
        # The stage starts strictly after its reset.
        assert policy.stage_starts[1] > policy.resets[0]

    def test_constant_rate_never_resets(self):
        policy = make_policy()
        trace = run_single_session(policy, [8.0] * 500)
        assert trace.completed_stages == 0
        # One or two changes total: the initial set and at most one climb.
        assert trace.change_count <= 3


class TestTheorem6Guarantees:
    @pytest.fixture
    def offline(self) -> OfflineConstraints:
        return OfflineConstraints(
            bandwidth=B_A, delay=D_O, utilization=U_O, window=W
        )

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("burstiness", ["smooth", "blocks"])
    def test_guarantees_on_certified_streams(self, offline, seed, burstiness):
        stream = generate_feasible_stream(
            offline, horizon=2000, segments=6, seed=seed, burstiness=burstiness
        )
        policy = make_policy()
        trace = run_single_session(policy, stream.arrivals)
        # Claim 2, Lemma 3 (delay <= 2 D_O), the B_A cap, Claim 9, Lemma 5.
        report = certify_single(
            trace, single_session_bounds(offline), profile=stream.profile
        )
        assert report.certified, report.render()
        assert trace.max_delay <= 2 * D_O
        # Lemma 1: changes per stage <= log2(B_A) + 2.
        assert policy.max_changes_per_stage <= math.log2(B_A) + 2
        # Lemma 5: existential utilization >= U_O / 3.
        exist = min_existential_window_utilization(
            trace.arrivals, trace.allocation, W + 5 * D_O
        )
        assert exist >= U_O / 3 - 1e-9

    def test_competitive_against_certificate(self, offline):
        stream = generate_feasible_stream(
            offline, horizon=4000, segments=10, seed=7, burstiness="blocks"
        )
        policy = make_policy()
        trace = run_single_session(policy, stream.arrivals)
        bound = math.log2(B_A) + 2
        assert trace.change_count <= bound * max(1, stream.profile_changes + 1)


class TestClaim2Property:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        rate=st.floats(min_value=0.5, max_value=20.0),
        burst=st.floats(min_value=0.0, max_value=200.0),
    )
    def test_claim2_holds_on_arbitrary_streams(self, seed, rate, burst):
        """Claim 2 needs no feasibility assumption on the arrivals other
        than fitting under B_A; fuzz it broadly."""
        rng = np.random.default_rng(seed)
        arrivals = rng.poisson(rate, size=300).astype(float)
        arrivals[rng.integers(0, 300)] += min(burst, B_A * D_O)
        # Clamp to the feasibility envelope: a single slot can carry at
        # most (1 + D_O) * B_O bits (Claim 9 with Δ=1).
        arrivals = np.minimum(arrivals, (1 + D_O) * B_A)
        policy = make_policy()
        trace = run_single_session(policy, arrivals)
        margin, queue = claim2_margins(trace, online_delay=2 * D_O)
        assert claim2_violations(margin, queue).size == 0


class TestDiagnostics:
    def test_low_high_properties_outside_stage(self):
        policy = make_policy()
        assert policy.low == 0.0
        assert policy.high == B_A

    def test_stage_change_counts_recorded(self):
        policy = make_policy()
        arrivals = [1.0] * 50 + [B_A * D_O] + [0.0] * 30 + [2.0] * 30
        run_single_session(policy, arrivals)
        assert policy.stage_change_counts
        assert all(c >= 0 for c in policy.stage_change_counts)


class TestHeadroomParameter:
    @staticmethod
    def _certified(seed):
        offline = OfflineConstraints(bandwidth=B_A, delay=D_O, utilization=U_O, window=W)
        return generate_feasible_stream(
            offline, horizon=2000, segments=6, seed=seed, burstiness="blocks"
        ).arrivals

    def test_validation(self):
        with pytest.raises(ConfigError):
            make_policy(headroom=0.5)

    def test_headroom_allocates_more(self):
        arrivals = self._certified(0)
        base_trace = run_single_session(make_policy(), arrivals)
        roomy_trace = run_single_session(make_policy(headroom=4.0), arrivals)
        assert roomy_trace.allocation.sum() >= base_trace.allocation.sum()
        assert roomy_trace.max_delay <= 2 * D_O

    def test_headroom_clamped_to_max(self):
        trace = run_single_session(make_policy(headroom=8.0), self._certified(1))
        assert trace.max_allocation <= B_A
