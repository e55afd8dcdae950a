"""Tests for the ablation variants of the single-session algorithm."""

import numpy as np
import pytest

from repro.core.single_session import SingleSessionOnline
from repro.core.variants import EagerResetSingleSession, NonMonotoneSingleSession
from repro.errors import ConfigError
from repro.params import OfflineConstraints
from repro.sim.engine import run_single_session
from repro.traffic.feasible import generate_feasible_stream

B_A, D_O, U_O, W = 64.0, 4, 0.25, 8
OFFLINE = OfflineConstraints(bandwidth=B_A, delay=D_O, utilization=U_O, window=W)


def certified(seed=0, horizon=2000):
    return generate_feasible_stream(
        OFFLINE, horizon=horizon, segments=6, seed=seed, burstiness="blocks"
    )


class TestHeadroomParameter:
    def test_validation(self):
        with pytest.raises(ConfigError):
            SingleSessionOnline(
                max_bandwidth=B_A,
                offline_delay=D_O,
                offline_utilization=U_O,
                window=W,
                headroom=0.5,
            )

    def test_headroom_allocates_more(self):
        stream = certified()
        base = SingleSessionOnline(
            max_bandwidth=B_A, offline_delay=D_O, offline_utilization=U_O, window=W
        )
        roomy = SingleSessionOnline(
            max_bandwidth=B_A,
            offline_delay=D_O,
            offline_utilization=U_O,
            window=W,
            headroom=4.0,
        )
        base_trace = run_single_session(base, stream.arrivals)
        roomy_trace = run_single_session(roomy, stream.arrivals)
        assert roomy_trace.allocation.sum() >= base_trace.allocation.sum()
        assert roomy_trace.max_delay <= 2 * D_O

    def test_headroom_clamped_to_max(self):
        policy = SingleSessionOnline(
            max_bandwidth=B_A,
            offline_delay=D_O,
            offline_utilization=U_O,
            window=W,
            headroom=8.0,
        )
        stream = certified(seed=1)
        trace = run_single_session(policy, stream.arrivals)
        assert trace.max_allocation <= B_A


class TestEagerReset:
    def test_keeps_delay_envelope_with_slack(self):
        stream = certified(seed=2)
        policy = EagerResetSingleSession(
            max_bandwidth=B_A, offline_delay=D_O, offline_utilization=U_O, window=W
        )
        trace = run_single_session(
            policy,
            stream.arrivals,
        )
        # Eager restart loses the clean-queue induction; allow the
        # documented extra D_O of hand-off slack.
        assert trace.max_delay <= 2 * D_O + D_O
        assert trace.total_delivered == pytest.approx(trace.total_arrived)

    def test_no_drain_wait_between_stages(self):
        arrivals = np.asarray([1.0] * 50 + [B_A * D_O] + [1.0] * 50)
        eager = EagerResetSingleSession(
            max_bandwidth=B_A, offline_delay=D_O, offline_utilization=U_O, window=W
        )
        run_single_session(eager, arrivals)
        assert eager.resets, "the burst must end the stage"
        reset = eager.resets[0]
        next_start = [s for s in eager.stage_starts if s > reset]
        assert next_start and next_start[0] == reset + 1

    def test_conserves_bits_on_repeated_resets(self):
        arrivals = np.asarray(([1.0] * 30 + [B_A * D_O]) * 4)
        eager = EagerResetSingleSession(
            max_bandwidth=B_A, offline_delay=D_O, offline_utilization=U_O, window=W
        )
        trace = run_single_session(eager, arrivals)
        assert trace.total_delivered == pytest.approx(trace.total_arrived)


class TestNonMonotone:
    def test_allocation_can_drop_within_stage(self):
        policy = NonMonotoneSingleSession(
            max_bandwidth=B_A,
            offline_delay=D_O,
            offline_utilization=U_O,
            window=W,
            headroom=4.0,
        )
        # With headroom 4 the paper's rule would hold the inflated level;
        # the variant drops back once the drain floor allows.
        arrivals = np.asarray([8.0] * 5 + [1.0] * 40)
        trace = run_single_session(policy, arrivals)
        increases = [c for c in trace.changes if c.new > c.old]
        decreases = [c for c in trace.changes if c.new < c.old]
        assert decreases, "variant should lower the allocation on falling demand"
        assert increases

    def test_still_meets_delay(self):
        stream = certified(seed=3)
        policy = NonMonotoneSingleSession(
            max_bandwidth=B_A, offline_delay=D_O, offline_utilization=U_O, window=W
        )
        trace = run_single_session(policy, stream.arrivals)
        assert trace.max_delay <= 2 * D_O
        assert trace.total_delivered == pytest.approx(trace.total_arrived)

    def test_more_changes_than_paper_rule(self):
        stream = certified(seed=4)
        paper = SingleSessionOnline(
            max_bandwidth=B_A, offline_delay=D_O, offline_utilization=U_O, window=W
        )
        variant = NonMonotoneSingleSession(
            max_bandwidth=B_A, offline_delay=D_O, offline_utilization=U_O, window=W
        )
        paper_trace = run_single_session(paper, stream.arrivals)
        variant_trace = run_single_session(variant, stream.arrivals)
        assert variant_trace.change_count >= paper_trace.change_count
