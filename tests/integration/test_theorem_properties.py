"""Randomized end-to-end theorem properties.

These are the strongest tests in the suite: hypothesis draws workload
shapes (segments, utilization floors, burstiness, sharing skew), the
generators certify feasibility, and every paper guarantee is asserted on
the resulting runs — delay, utilization, bandwidth envelopes, per-stage
change bounds, and conservation of bits.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.continuous import ContinuousMultiSession
from repro.core.combined import CombinedMultiSession
from repro.core.phased import PhasedMultiSession
from repro.core.single_session import SingleSessionOnline
from repro.params import OfflineConstraints
from repro.sim.engine import run_multi_session, run_single_session
from repro.traffic.feasible import generate_feasible_stream
from repro.traffic.multi import generate_multi_feasible
from repro.verify.certificates import (
    TheoremBounds,
    certify_multi,
    certify_single,
    continuous_bounds,
    min_existential_window_utilization,
    phased_bounds,
    single_session_bounds,
)
from tests.differential import assert_certified

SLOW = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@SLOW
@given(
    seed=st.integers(min_value=0, max_value=100_000),
    exponent=st.integers(min_value=4, max_value=10),
    delay=st.sampled_from([2, 4, 8]),
    utilization=st.sampled_from([0.1, 0.25, 1 / 3]),
    burstiness=st.sampled_from(["smooth", "blocks"]),
    segments=st.integers(min_value=1, max_value=8),
)
def test_theorem6_guarantees_hold(
    seed, exponent, delay, utilization, burstiness, segments
):
    """Theorem 6 on random certified workloads: delay, utilization,
    bandwidth cap, per-stage changes, and bit conservation."""
    bandwidth = float(2**exponent)
    window = 2 * delay
    offline = OfflineConstraints(
        bandwidth=bandwidth, delay=delay, utilization=utilization, window=window
    )
    stream = generate_feasible_stream(
        offline,
        horizon=segments * max(window, 4 * delay) + 600,
        segments=segments,
        seed=seed,
        burstiness=burstiness,
    )
    policy = SingleSessionOnline(
        max_bandwidth=bandwidth,
        offline_delay=delay,
        offline_utilization=utilization,
        window=window,
    )
    trace = run_single_session(policy, stream.arrivals)
    # Claim 2, Claim 9, the B_A cap, Lemma 3's 2·D_O delay and Lemma 5.
    assert_certified(
        certify_single(
            trace, single_session_bounds(offline), profile=stream.profile
        )
    )
    assert trace.total_delivered == pytest.approx(trace.total_arrived)
    assert policy.max_changes_per_stage <= exponent + 2
    exist = min_existential_window_utilization(
        trace.arrivals, trace.allocation, window + 5 * delay
    )
    assert exist >= utilization / 3 - 1e-9


@SLOW
@given(
    seed=st.integers(min_value=0, max_value=100_000),
    k=st.integers(min_value=2, max_value=10),
    delay=st.sampled_from([2, 4, 8]),
    concentration=st.sampled_from([0.4, 1.0, 3.0]),
    burstiness=st.sampled_from(["smooth", "blocks"]),
    algorithm=st.sampled_from(["phased", "continuous"]),
    fifo=st.booleans(),
)
def test_multi_session_guarantees_hold(
    seed, k, delay, concentration, burstiness, algorithm, fifo
):
    """Theorems 14/17 on random certified workloads."""
    bandwidth = 48.0
    workload = generate_multi_feasible(
        k,
        offline_bandwidth=bandwidth,
        offline_delay=delay,
        horizon=1000 + 8 * delay,
        segments=4,
        seed=seed,
        concentration=concentration,
        burstiness=burstiness,
    )
    if algorithm == "phased":
        policy = PhasedMultiSession(
            k, offline_bandwidth=bandwidth, offline_delay=delay, fifo=fifo
        )
        bounds = phased_bounds(bandwidth, delay, k)
    else:
        policy = ContinuousMultiSession(
            k, offline_bandwidth=bandwidth, offline_delay=delay, fifo=fifo
        )
        bounds = continuous_bounds(bandwidth, delay, k)
    trace = run_multi_session(policy, workload.arrivals)
    # 2·D_O delay, the 4·B_O / 5·B_O cap, Lemma 10 / 16 and Claim 9.
    assert_certified(certify_multi(trace, bounds, profiles=workload.profiles))
    assert trace.total_delivered == pytest.approx(trace.total_arrived)
    stages = trace.completed_stages + 1
    assert trace.local_change_count <= 8 * k * stages


@SLOW
@given(
    seed=st.integers(min_value=0, max_value=100_000),
    k=st.integers(min_value=2, max_value=6),
    inner=st.sampled_from(["phased", "continuous"]),
)
def test_combined_guarantees_hold(seed, k, inner):
    """Section 4 on random certified workloads (documented delay slack)."""
    bandwidth, delay, utilization, window = 128.0, 4, 0.25, 8
    offline = OfflineConstraints(
        bandwidth=bandwidth, delay=delay, utilization=utilization, window=window
    )
    aggregate = generate_feasible_stream(
        offline, horizon=1200, segments=4, seed=seed, burstiness="smooth"
    )
    rng = np.random.default_rng(seed + 1)
    arrivals = np.zeros((len(aggregate.arrivals), k))
    weights = rng.dirichlet(np.ones(k))
    for t in range(arrivals.shape[0]):
        if t % (4 * delay) == 0:
            weights = rng.dirichlet(np.ones(k))
        arrivals[t] = aggregate.arrivals[t] * weights
    policy = CombinedMultiSession(
        k,
        offline_bandwidth=bandwidth,
        offline_delay=delay,
        offline_utilization=utilization,
        window=window,
        inner=inner,
    )
    slack = 7.0 if inner == "phased" else 8.0
    trace = run_multi_session(policy, arrivals)
    bounds = TheoremBounds(
        variant="combined",
        offline_bandwidth=bandwidth,
        offline_delay=delay,
        online_delay=2 * delay + delay,  # documented hand-off slack
        max_bandwidth=slack * bandwidth,
    )
    assert_certified(certify_multi(trace, bounds))
    assert trace.total_delivered == pytest.approx(trace.total_arrived)
    global_stages = len(policy.resets) + 1
    assert policy.global_change_count <= (
        2 * math.log2(bandwidth) * global_stages + 2
    )


@SLOW
@given(
    seed=st.integers(min_value=0, max_value=100_000),
    cycles=st.integers(min_value=5, max_value=30),
)
def test_competitiveness_never_degenerate(seed, cycles):
    """On any certified stream the online change count stays within the
    Theorem 6 envelope of the certificate count."""
    bandwidth, delay, utilization, window = 64.0, 4, 0.25, 8
    offline = OfflineConstraints(
        bandwidth=bandwidth, delay=delay, utilization=utilization, window=window
    )
    stream = generate_feasible_stream(
        offline,
        horizon=200 + cycles * 40,
        segments=max(1, cycles // 4),
        seed=seed,
        burstiness="blocks",
    )
    policy = SingleSessionOnline(
        max_bandwidth=bandwidth,
        offline_delay=delay,
        offline_utilization=utilization,
        window=window,
    )
    trace = run_single_session(policy, stream.arrivals)
    envelope = (math.log2(bandwidth) + 2) * (stream.profile_changes + 1)
    assert trace.change_count <= envelope
