"""Corollary 4 as a measured property across randomized workloads."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.single_session import SingleSessionOnline
from repro.errors import ConfigError
from repro.params import OfflineConstraints
from repro.sim.engine import run_single_session
from repro.traffic.feasible import generate_feasible_stream
from repro.verify.certificates import corollary4_slack, lindley_backlog


class TestBacklogSeries:
    def test_lindley_recursion(self):
        arrivals = np.asarray([5.0, 0.0, 3.0])
        capacities = np.asarray([2.0, 2.0, 10.0])
        np.testing.assert_allclose(
            lindley_backlog(arrivals, capacities), [3.0, 1.0, 0.0]
        )

    def test_shape_mismatch(self):
        with pytest.raises(ConfigError):
            lindley_backlog(np.ones(3), np.ones(2))

    def test_never_negative(self):
        rng = np.random.default_rng(0)
        arrivals = rng.poisson(3, 100).astype(float)
        capacities = rng.poisson(4, 100).astype(float)
        assert (lindley_backlog(arrivals, capacities) >= 0).all()


@settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(
    seed=st.integers(min_value=0, max_value=100_000),
    delay=st.sampled_from([2, 4, 8]),
    utilization=st.sampled_from([0.1, 0.25]),
    burstiness=st.sampled_from(["smooth", "blocks"]),
)
def test_corollary4_holds_on_certified_streams(seed, delay, utilization, burstiness):
    """The online queue never exceeds the certificate profile's queue plus
    ``B_O · D_O`` — Corollary 4 with the generator's offline schedule
    standing in for "any offline algorithm"."""
    bandwidth = 128.0
    window = 2 * delay
    offline = OfflineConstraints(
        bandwidth=bandwidth, delay=delay, utilization=utilization, window=window
    )
    stream = generate_feasible_stream(
        offline, horizon=1200, segments=4, seed=seed, burstiness=burstiness
    )
    policy = SingleSessionOnline(
        max_bandwidth=bandwidth,
        offline_delay=delay,
        offline_utilization=utilization,
        window=window,
    )
    trace = run_single_session(policy, stream.arrivals)
    slack, _ = corollary4_slack(
        trace.backlog, trace.arrivals, stream.profile, bandwidth, delay
    )
    assert slack.min(initial=np.inf) >= -1e-6
