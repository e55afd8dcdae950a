"""Engine tests: conservation, draining, certified invariants, failure modes."""

import numpy as np
import pytest

from repro.core.baselines import EqualSplitMultiSession, StaticAllocator
from repro.errors import ConfigError, SimulationError
from repro.sim.engine import run_multi_session, run_single_session
from repro.sim.recorder import histogram_max_delay
from repro.verify.certificates import (
    TheoremBounds,
    certify_single,
    raw_single_bounds,
)


class TestSingleSessionEngine:
    def test_conservation_with_drain(self):
        arrivals = [10.0, 0.0, 20.0, 0.0]
        trace = run_single_session(StaticAllocator(4.0), arrivals)
        assert trace.total_delivered == pytest.approx(30.0)
        assert trace.slots > len(arrivals)  # drained past the horizon
        assert trace.backlog[-1] == pytest.approx(0.0)

    def test_no_drain_leaves_backlog(self):
        trace = run_single_session(
            StaticAllocator(1.0), [10.0, 0.0], drain=False
        )
        assert trace.slots == 2
        assert trace.backlog[-1] == pytest.approx(8.0)

    def test_zero_bandwidth_policy_trips_cap(self):
        with pytest.raises(SimulationError, match="failed to drain"):
            run_single_session(
                StaticAllocator(0.0000001), [100.0], max_drain_slots=10
            )

    def test_negative_arrivals_rejected(self):
        with pytest.raises(ConfigError):
            run_single_session(StaticAllocator(1.0), [-1.0])

    def test_wrong_dim_rejected(self):
        with pytest.raises(ConfigError):
            run_single_session(StaticAllocator(1.0), [[1.0], [2.0]])

    def test_monitor_sees_violation(self):
        trace = run_single_session(StaticAllocator(4.0), [1.0])
        report = certify_single(trace, raw_single_bounds(2.0, 1))
        (check,) = [c for c in report.failures if c.name == "max-bandwidth"]
        assert check.counterexamples[0].t == 0

    def test_delay_monitor_passes_on_fast_service(self):
        trace = run_single_session(StaticAllocator(100.0), [5.0, 5.0])
        bounds = TheoremBounds(
            "single", offline_bandwidth=100.0, offline_delay=1, online_delay=1
        )
        (lemma3,) = [
            c for c in certify_single(trace, bounds).checks if c.name == "lemma3"
        ]
        assert lemma3.passed
        assert trace.max_delay == 0

    def test_empty_horizon(self):
        trace = run_single_session(StaticAllocator(1.0), [])
        assert trace.slots == 0
        assert trace.total_arrived == 0.0


class TestMultiSessionEngine:
    def test_conservation(self):
        arrivals = np.array([[3.0, 1.0], [0.0, 5.0], [2.0, 0.0]])
        policy = EqualSplitMultiSession(2, offline_bandwidth=2.0)
        trace = run_multi_session(policy, arrivals)
        assert trace.total_delivered == pytest.approx(trace.total_arrived)
        assert trace.k == 2

    def test_k_mismatch_rejected(self):
        policy = EqualSplitMultiSession(3, offline_bandwidth=1.0)
        with pytest.raises(ConfigError, match="k=2"):
            run_multi_session(policy, np.ones((4, 2)))

    def test_local_changes_sorted_by_time(self):
        policy = EqualSplitMultiSession(2, offline_bandwidth=2.0)
        trace = run_multi_session(policy, np.ones((5, 2)))
        times = [change.t for _, _, change in trace.local_changes]
        assert times == sorted(times)

    def test_delay_histogram_per_session(self):
        arrivals = np.zeros((3, 2))
        arrivals[0, 0] = 9.0  # session 0 gets a burst; each session owns 4/slot
        policy = EqualSplitMultiSession(2, offline_bandwidth=4.0)
        trace = run_multi_session(policy, arrivals)
        assert histogram_max_delay(trace.delay_histograms[0]) == 2
        assert histogram_max_delay(trace.delay_histograms[1]) == 0


class _NonFinitePolicy(StaticAllocator):
    """Returns NaN from the third slot on (a buggy policy)."""

    def decide(self, t, arrivals, backlog):
        if t >= 2:
            return float("nan")
        return super().decide(t, arrivals, backlog)


class TestNonFiniteInputs:
    """Regressions: NaN/inf must be rejected loudly, not simulated."""

    def test_nan_arrivals_rejected(self):
        with pytest.raises(ConfigError, match="finite"):
            run_single_session(StaticAllocator(1.0), [1.0, float("nan")])

    def test_inf_arrivals_rejected(self):
        with pytest.raises(ConfigError, match="finite"):
            run_single_session(StaticAllocator(1.0), [float("inf"), 1.0])

    def test_nan_multi_arrivals_rejected(self):
        policy = EqualSplitMultiSession(2, offline_bandwidth=1.0)
        with pytest.raises(ConfigError, match="finite"):
            run_multi_session(policy, [[1.0, float("nan")], [0.0, 0.0]])

    def test_negative_still_rejected_alongside_nan_check(self):
        with pytest.raises(ConfigError, match="non-negative"):
            run_single_session(StaticAllocator(1.0), [1.0, -2.0])

    def test_non_finite_policy_output_rejected(self):
        with pytest.raises(SimulationError, match="non-finite"):
            run_single_session(
                _NonFinitePolicy(4.0), [1.0, 1.0, 1.0, 1.0]
            )

    def test_non_finite_multi_policy_output_rejected(self):
        class Broken(EqualSplitMultiSession):
            def step(self, t, arrivals):
                results = super().step(t, arrivals)
                if t >= 1:
                    self.sessions[0].channels.regular_link._bandwidth = float(
                        "inf"
                    )
                return results

        with pytest.raises(SimulationError, match="non-finite"):
            run_multi_session(
                Broken(2, offline_bandwidth=2.0), np.ones((4, 2))
            )
