"""End-to-end tests of the instrumented engine and fault plane.

The key property: telemetry is *observational*.  Running the identical
simulation with telemetry on and off must yield bit-identical traces —
the acceptance bar for the subsystem.
"""

import numpy as np
import pytest

from repro.core.continuous import ContinuousMultiSession
from repro.core.phased import PhasedMultiSession
from repro.core.single_session import SingleSessionOnline
from repro.faults import RetryPolicy, install_signaling, standard_plan
from repro.obs import telemetry_session
from repro.sim.engine import run_multi_session, run_single_session
from repro.traffic import generate_multi_feasible


def _single_policy():
    return SingleSessionOnline(
        max_bandwidth=64, offline_delay=8, offline_utilization=0.25, window=16
    )


def _stream(horizon=2000, seed=5):
    return np.random.default_rng(seed).poisson(6, size=horizon).astype(float)


def _assert_single_traces_identical(first, second):
    np.testing.assert_array_equal(first.arrivals, second.arrivals)
    np.testing.assert_array_equal(first.allocation, second.allocation)
    np.testing.assert_array_equal(first.delivered, second.delivered)
    np.testing.assert_array_equal(first.backlog, second.backlog)
    np.testing.assert_array_equal(first.dropped, second.dropped)
    np.testing.assert_array_equal(first.requested, second.requested)
    np.testing.assert_array_equal(first.effective, second.effective)
    assert first.delay_histogram == second.delay_histogram
    assert first.changes == second.changes
    assert first.stage_starts == second.stage_starts
    assert first.resets == second.resets


class TestBitIdentity:
    def test_single_session_trace_identical_on_off(self):
        arrivals = _stream()
        baseline = run_single_session(_single_policy(), arrivals)
        with telemetry_session():
            instrumented = run_single_session(_single_policy(), arrivals)
        _assert_single_traces_identical(baseline, instrumented)

    def test_single_session_with_faults_identical_on_off(self):
        arrivals = _stream(horizon=1500, seed=9)
        plan = standard_plan(0.4, horizon=1500, seed=2)

        def run():
            policy = _single_policy()
            install_signaling(policy, plan, RetryPolicy(max_attempts=3))
            return run_single_session(policy, arrivals, faults=plan)

        baseline = run()
        with telemetry_session():
            instrumented = run()
        _assert_single_traces_identical(baseline, instrumented)

    @pytest.mark.parametrize("cls", [PhasedMultiSession, ContinuousMultiSession])
    def test_multi_session_trace_identical_on_off(self, cls):
        workload = generate_multi_feasible(
            3, offline_bandwidth=48, offline_delay=8, horizon=1200, seed=4
        )

        def run():
            policy = cls(3, offline_bandwidth=48, offline_delay=8)
            return run_multi_session(policy, workload.arrivals)

        baseline = run()
        with telemetry_session():
            instrumented = run()
        np.testing.assert_array_equal(
            baseline.regular_allocation, instrumented.regular_allocation
        )
        np.testing.assert_array_equal(
            baseline.overflow_allocation, instrumented.overflow_allocation
        )
        np.testing.assert_array_equal(baseline.delivered, instrumented.delivered)
        np.testing.assert_array_equal(baseline.backlog, instrumented.backlog)
        assert baseline.local_changes == instrumented.local_changes
        assert baseline.stage_starts == instrumented.stage_starts


class TestEngineEmission:
    def test_single_run_metrics_spans_profile(self):
        arrivals = _stream(horizon=1000)
        with telemetry_session() as tele:
            trace = run_single_session(_single_policy(), arrivals)

        counters = tele.registry.snapshot()["counters"]
        assert counters["engine.single.runs"] == 1.0
        assert counters["engine.single.slots"] == trace.slots
        assert counters["engine.single.changes"] == trace.change_count
        assert counters["engine.single.stage_starts"] == len(trace.stage_starts)
        assert counters["core.fig3.stage_starts"] == len(trace.stage_starts)
        assert tele.registry.counter_value("core.fig3.resets") == len(
            trace.resets
        )

        depth = tele.registry.histogram("engine.single.queue_depth")
        assert depth.count == trace.slots

        stage_spans = [s for s in tele.tracer.spans if s.kind == "stage"]
        assert len(stage_spans) == len(trace.stage_starts)
        assert stage_spans[0].t0 == trace.stage_starts[0]
        assert stage_spans[-1].t1 == trace.slots
        run_spans = [s for s in tele.tracer.spans if s.kind == "run"]
        assert run_spans[0].attrs["horizon"] == 1000

        (profile,) = tele.profiles
        assert profile.name == "engine.run_single_session"
        assert profile.slots == trace.slots
        assert profile.slots_per_sec > 0

    def test_multi_run_phase_spans(self):
        workload = generate_multi_feasible(
            3, offline_bandwidth=48, offline_delay=8, horizon=800, seed=1
        )
        with telemetry_session() as tele:
            policy = PhasedMultiSession(3, offline_bandwidth=48, offline_delay=8)
            trace = run_multi_session(policy, workload.arrivals)

        counters = tele.registry.snapshot()["counters"]
        assert counters["engine.multi.runs"] == 1.0
        assert counters["engine.multi.slots"] == trace.slots
        assert counters["core.phased.phase_ends"] == len(policy.phase_boundaries)
        phase_spans = [s for s in tele.tracer.spans if s.kind == "phase"]
        assert len(phase_spans) == len(policy.phase_boundaries)
        assert tele.profiles[0].name == "engine.run_multi_session"

    def test_disabled_session_records_nothing(self):
        arrivals = _stream(horizon=300)
        run_single_session(_single_policy(), arrivals)
        from repro.obs import get_telemetry

        telemetry = get_telemetry()
        assert telemetry.enabled is False
        assert telemetry.registry.snapshot()["counters"] == {}
        assert telemetry.profiles == []


class TestFaultAndInvariantEmission:
    def test_signaling_counters_match_wrapper_and_spans_conclude(self):
        arrivals = _stream(horizon=1500, seed=3)
        plan = standard_plan(0.5, horizon=1500, seed=7)
        with telemetry_session() as tele:
            policy = _single_policy()
            (link,) = install_signaling(policy, plan, RetryPolicy(max_attempts=3))
            run_single_session(policy, arrivals, faults=plan)

        registry = tele.registry
        assert registry.counter_value("faults.signaling.requests") == link.requests
        assert registry.counter_value("faults.signaling.drops") == link.drops
        assert registry.counter_value("faults.signaling.retries") == link.retries
        assert registry.counter_value("faults.signaling.give_ups") == link.give_ups

        spans = [s for s in tele.tracer.spans if s.kind == "signaling"]
        assert spans, "fault run produced no signaling spans"
        outcomes = {s.attrs["outcome"] for s in spans}
        assert outcomes <= {"applied", "gave_up", "superseded", "cancelled"}
        assert all(s.t1 >= s.t0 for s in spans)
        assert all(s.attrs["attempts"] >= 1 for s in spans
                   if s.attrs["outcome"] in ("applied", "gave_up"))

    def test_histograms_sample_every_slot_of_a_faulted_run(self):
        arrivals = _stream(horizon=800, seed=11)
        plan = standard_plan(0.6, horizon=800, seed=5)
        with telemetry_session() as tele:
            policy = _single_policy()
            install_signaling(policy, plan, RetryPolicy(max_attempts=2))
            trace = run_single_session(policy, arrivals, faults=plan)
        snapshot = tele.registry.snapshot()["histograms"]
        depth = snapshot["engine.single.queue_depth"]
        allocation = snapshot["engine.single.allocation"]
        assert depth["count"] == allocation["count"] == trace.slots
        assert depth["max"] == trace.max_backlog
        assert allocation["max"] == trace.max_allocation
