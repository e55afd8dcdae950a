"""The signaling plane on the policy's links, against a per-slot reference.

``install_signaling`` swaps a policy's links for
:class:`~repro.faults.UnreliableLink`s, and the engines tick them: the
single-session scalar step ticks, lets the policy decide, re-sends the
intent only if the policy sent nothing this slot, and serves the grant;
the multi-session step ticks every link before the policy steps.  Slices
start only on an idle plane.

The references below are the slot loops the plane used to run as policy
wrappers, kept here as test-only oracles:

* single session — tick, the policy decides on its own *reliable* link,
  one ``set`` of that decision on a separate unreliable link, serve the
  grant;
* multi session — tick every unreliable link (session order, regular
  then overflow, then the extra link), then ``step``.

Installed runs must match them bit for bit: the trace digest of
``test_pinned_engine.py`` and the request/drop/retry/give-up and
requested-change counts, with slices on and off, for every retry shape
including ``give_up="raise"`` (same error, same slot).  Hypothesis
budgets follow ``REPRO_FUZZ_EXAMPLES``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.baselines import (
    EwmaAllocator,
    PeriodicRenegotiationAllocator,
    StaticAllocator,
)
from repro.core.combined import CombinedMultiSession
from repro.core.continuous import ContinuousMultiSession
from repro.core.maxminfair import MaxMinFairAllocator
from repro.core.phased import PhasedMultiSession
from repro.core.prioritytier import PriorityTierAllocator
from repro.core.single_session import SingleSessionOnline
from repro.errors import SignalingError, SimulationError
from repro.faults import (
    NO_RETRY,
    FaultPlan,
    HeadroomPolicy,
    RetryPolicy,
    SignalDelay,
    SignalLoss,
    SignalOutage,
    UnreliableLink,
    install_signaling,
    standard_plan,
)
from repro.network.queue import BitQueue
from repro.params import OfflineConstraints
from repro.sim.recorder import MultiSessionRecorder, SingleSessionRecorder
from repro.sim.vector import EngineState, MultiEngineState
from repro.traffic import generate_feasible_stream, generate_multi_feasible
from tests.references import scalar_reference
from tests.sim.test_pinned_engine import trace_digest
from tests.strategies import FUZZ_EXAMPLES

_SETTINGS = settings(max_examples=FUZZ_EXAMPLES, deadline=None)

OFFLINE = OfflineConstraints(64.0, 8, 0.25, 16)
MAX_DRAIN = 400

SINGLE_POLICIES = {
    "fig3": lambda: SingleSessionOnline(64.0, 8, 0.25, 16),
    "headroom": lambda: HeadroomPolicy(SingleSessionOnline(64.0, 8, 0.25, 16), 1.5),
    "static": lambda: StaticAllocator(40.0),
    "ewma": lambda: EwmaAllocator(64.0),
    "periodic": lambda: PeriodicRenegotiationAllocator(64.0, period=16),
}

MULTI_K = 3
MULTI_POLICIES = {
    "phased": lambda: PhasedMultiSession(MULTI_K, offline_bandwidth=64.0, offline_delay=8),
    "continuous": lambda: ContinuousMultiSession(MULTI_K, offline_bandwidth=64.0, offline_delay=8),
    "combined": lambda: CombinedMultiSession(MULTI_K, 64.0, 8, 0.25, 16),
    "max-min": lambda: MaxMinFairAllocator(MULTI_K, capacity=48.0, period=4, quantum=0.25),
    "priority-tier": lambda: PriorityTierAllocator(
        MULTI_K, capacity=48.0, period=4, tiers=[0, 0, 1], floors=[2.0, 1.0], quantum=0.25
    ),
}

RETRIES = {
    "no-retry": NO_RETRY,
    "4-attempt": RetryPolicy(max_attempts=4, base_backoff=1, backoff_factor=2.0, jitter=0),
    "jittered": RetryPolicy(max_attempts=4, base_backoff=2, backoff_factor=1.5, jitter=3),
    "raise": RetryPolicy(max_attempts=2, give_up="raise"),
}

#: ``step`` budgets for the installed run: one slot, short, ragged, whole.
BUDGETS = st.sampled_from([1, 7, 97, 1 << 62])


@st.composite
def plans(draw, horizon: int) -> FaultPlan:
    """A standard plan at 0.3/0.6/0.9, or a signaling-only plan that
    leaves long fault-free stretches for slices to cross."""
    seed = draw(st.sampled_from([0, 1, 2, 3]))
    if draw(st.booleans()):
        return standard_plan(draw(st.sampled_from([0.3, 0.6, 0.9])), horizon, seed=seed)
    start = draw(st.integers(min_value=0, max_value=horizon))
    events = (
        SignalLoss(draw(st.sampled_from([0.1, 0.4, 0.8]))),
        SignalDelay(
            delay=draw(st.sampled_from([1, 3, 8, 20])), p=draw(st.sampled_from([0.5, 1.0]))
        ),
        SignalOutage(start, start + draw(st.integers(min_value=1, max_value=60))),
    )
    return FaultPlan(events, seed=seed)


def _single_arrivals(kind: str, horizon: int, seed: int) -> np.ndarray:
    if kind == "feasible":
        return generate_feasible_stream(OFFLINE, horizon, seed=seed, burstiness="blocks").arrivals
    arrivals = np.random.default_rng(seed).poisson(12.0, size=horizon).astype(float)
    arrivals[::53] += 150.0
    return arrivals


def _multi_arrivals(horizon: int, seed: int) -> np.ndarray:
    return generate_multi_feasible(
        MULTI_K, 64.0, 8, horizon, seed=seed, burstiness="blocks", concentration=0.7
    ).arrivals


def _counts(links) -> tuple[int, ...]:
    return tuple(
        sum(getattr(link, name) for link in links)
        for name in ("requests", "drops", "retries", "give_ups")
    )


def _outcome(run) -> tuple:
    """The trace digest (or the error that ended the run), the summed
    signaling counters and the requested-change count.  ``run(links)``
    appends the signaling links it uses to ``links``."""
    links = []
    try:
        trace, requested_changes = run(links)
        ended = trace_digest(trace)
    except (SimulationError, SignalingError) as exc:
        ended = f"{type(exc).__name__}: {exc}"
        requested_changes = None
    return ended, _counts(links), requested_changes


# -- the references: the wrappers' slot loops ---------------------------------


def _reference_single(policy, arrivals, plan, retry, out_links):
    plane = UnreliableLink(policy.link.name, plan, retry)
    out_links.append(plane)
    queue = BitQueue("session")
    recorder = SingleSessionRecorder()
    horizon = len(arrivals)
    values = arrivals.tolist()
    t = 0
    while t < horizon or not queue.is_empty:
        if t >= horizon + MAX_DRAIN:
            raise SimulationError(
                f"queue failed to drain within {MAX_DRAIN} extra slots "
                f"(backlog {queue.size:.3f})"
            )
        offered = values[t] if t < horizon else 0.0
        kept = offered
        fault_dropped = 0.0
        if offered > 0.0:
            keep = plan.ingress_factor(t)
            if keep < 1.0:
                fault_dropped = offered * (1.0 - keep)
                kept = offered - fault_dropped
        backlog = queue.size
        lost = queue.push(t, kept)
        plane.tick(t)
        desired = policy.decide(t, kept, backlog)
        plane.set(t, desired)
        granted = plane.bandwidth
        effective = granted * plan.capacity_factor(t)
        served = queue.serve(t, effective, recorder.histogram)
        recorder.record(
            t, offered, granted, served, queue.size,
            dropped=lost + fault_dropped, requested=desired, effective=effective,
        )
        t += 1
    trace = recorder.finalize(
        changes=plane.changes,
        stage_starts=policy.stage_starts,
        resets=policy.resets,
        horizon=horizon,
    )
    return trace, policy.link.change_count


def _reference_multi(policy, arrivals, plan, retry, out_links):
    def wrap(link):
        unreliable = UnreliableLink(
            link.name, plan, retry, channel=len(out_links), bandwidth=link.bandwidth
        )
        out_links.append(unreliable)
        return unreliable

    sessions = policy.sessions
    for session in sessions:
        session.channels.regular_link = wrap(session.channels.regular_link)
        session.channels.overflow_link = wrap(session.channels.overflow_link)
    if policy.extra_link is not None:
        policy.extra_link = wrap(policy.extra_link)
    recorder = MultiSessionRecorder(policy.k)
    horizon = len(arrivals)
    rows = arrivals.tolist()
    t = 0
    while t < horizon or policy.total_backlog > 0:
        if t >= horizon + MAX_DRAIN:
            raise SimulationError(
                f"queues failed to drain within {MAX_DRAIN} extra slots "
                f"(backlog {policy.total_backlog:.3f})"
            )
        offered = rows[t] if t < horizon else [0.0] * policy.k
        factor = plan.capacity_factor(t)
        for session in sessions:
            session.channels.capacity_factor = factor
        kept = offered
        fault_dropped = 0.0
        if t < horizon:
            keep = plan.ingress_factor(t)
            if keep < 1.0:
                kept = [x * keep for x in offered]
                fault_dropped = sum(offered) - sum(kept)
        for link in out_links:
            link.tick(t)
        delivered = policy.step(t, kept)
        extra = policy.extra_link.bandwidth if policy.extra_link is not None else 0.0
        recorder.record(
            t,
            offered,
            [s.channels.regular_link.bandwidth for s in sessions],
            [s.channels.overflow_link.bandwidth for s in sessions],
            delivered,
            policy.session_backlogs(),
            extra,
            requested_total=policy.total_requested,
            dropped=fault_dropped,
        )
        t += 1
    for session in sessions:
        session.channels.capacity_factor = 1.0
    local_changes = [
        (session.index, kind, change)
        for session in sessions
        for kind, link in (
            ("regular", session.channels.regular_link),
            ("overflow", session.channels.overflow_link),
        )
        for change in link.changes
    ]
    local_changes.sort(key=lambda item: item[2].t)
    trace = recorder.finalize(
        local_changes=local_changes,
        extra_changes=list(policy.extra_link.changes) if policy.extra_link is not None else [],
        stage_starts=policy.stage_starts,
        resets=policy.resets,
        horizon=horizon,
        delay_histograms=[session.histogram for session in sessions],
    )
    return trace, None


# -- the installed plane ------------------------------------------------------


def _installed_single(policy, arrivals, plan, retry, vector, budget, out_links):
    out_links += install_signaling(policy, plan, retry)
    if not vector:
        policy = scalar_reference(policy)
    state = EngineState(policy, arrivals, faults=plan, max_drain_slots=MAX_DRAIN)
    while not state.done:
        state.step(budget)
    return state.finalize(), policy.link.requested_changes


def _installed_multi(policy, arrivals, plan, retry, vector, budget, out_links):
    out_links += install_signaling(policy, plan, retry)
    if not vector:
        policy = scalar_reference(policy)
    state = MultiEngineState(policy, arrivals, faults=plan, max_drain_slots=MAX_DRAIN)
    while not state.done:
        state.step(budget)
    return state.finalize(), None


class TestSingleSession:
    @_SETTINGS
    @given(
        name=st.sampled_from(sorted(SINGLE_POLICIES)),
        retry=st.sampled_from(sorted(RETRIES)),
        kind=st.sampled_from(["feasible", "raw"]),
        horizon=st.integers(min_value=300, max_value=900),
        seed=st.integers(min_value=0, max_value=50),
        data=st.data(),
        vector=st.booleans(),
        budget=BUDGETS,
    )
    def test_matches_the_wrapper_loop(self, name, retry, kind, horizon, seed, data, vector, budget):
        arrivals = _single_arrivals(kind, horizon, seed)
        plan = data.draw(plans(horizon))
        factory = SINGLE_POLICIES[name]
        expected = _outcome(
            lambda links: _reference_single(factory(), arrivals, plan, RETRIES[retry], links)
        )
        got = _outcome(
            lambda links: _installed_single(
                factory(), arrivals, plan, RETRIES[retry], vector, budget, links
            )
        )
        assert got == expected

    @pytest.mark.parametrize("intensity", [0.3, 0.6, 0.9])
    @pytest.mark.parametrize("retry", sorted(RETRIES))
    @pytest.mark.parametrize("name", sorted(SINGLE_POLICIES))
    def test_grid(self, name, retry, intensity):
        arrivals = _single_arrivals("raw", 600, seed=11)
        plan = standard_plan(intensity, 600, seed=2)
        factory = SINGLE_POLICIES[name]
        expected = _outcome(
            lambda links: _reference_single(factory(), arrivals, plan, RETRIES[retry], links)
        )
        for vector in (True, False):
            got = _outcome(
                lambda links: _installed_single(
                    factory(), arrivals, plan, RETRIES[retry], vector, 1 << 62, links
                )
            )
            assert got == expected

    @pytest.mark.parametrize("seed", range(4))
    def test_policy_decides_on_its_intent(self, seed):
        # A 20-slot request delay keeps the grant behind the intent across
        # stage starts and rung climbs: Figure 3 must climb from what it
        # asked for, not from what the plane has granted so far.
        arrivals = _single_arrivals("feasible", 600, seed)
        plan = FaultPlan((SignalDelay(delay=20, p=1.0),), seed=0)
        factory = SINGLE_POLICIES["fig3"]
        expected = _outcome(
            lambda links: _reference_single(factory(), arrivals, plan, NO_RETRY, links)
        )
        got = _outcome(
            lambda links: _installed_single(factory(), arrivals, plan, NO_RETRY, True, 1 << 62, links)
        )
        assert got == expected

    def test_give_up_raise_names_the_policy_link(self):
        arrivals = _single_arrivals("raw", 300, seed=1)
        plan = FaultPlan((SignalOutage(0, 1000),), seed=0)
        policy = SINGLE_POLICIES["fig3"]()
        install_signaling(policy, plan, RETRIES["raise"])
        with pytest.raises(SignalingError, match=r"^link 'fig3': request for 32\.000000 abandoned after 2 attempts at t=2$"):
            EngineState(policy, arrivals, faults=plan).run()


class TestMultiSession:
    @_SETTINGS
    @given(
        name=st.sampled_from(sorted(MULTI_POLICIES)),
        retry=st.sampled_from(sorted(RETRIES)),
        horizon=st.integers(min_value=200, max_value=500),
        seed=st.integers(min_value=0, max_value=50),
        data=st.data(),
        vector=st.booleans(),
        budget=BUDGETS,
    )
    def test_matches_the_wrapper_loop(self, name, retry, horizon, seed, data, vector, budget):
        arrivals = _multi_arrivals(horizon, seed)
        plan = data.draw(plans(horizon))
        factory = MULTI_POLICIES[name]
        expected = _outcome(
            lambda links: _reference_multi(factory(), arrivals, plan, RETRIES[retry], links)
        )
        got = _outcome(
            lambda links: _installed_multi(
                factory(), arrivals, plan, RETRIES[retry], vector, budget, links
            )
        )
        assert got == expected

    @pytest.mark.parametrize("intensity", [0.3, 0.6, 0.9])
    @pytest.mark.parametrize("retry", sorted(RETRIES))
    @pytest.mark.parametrize("name", sorted(MULTI_POLICIES))
    def test_grid(self, name, retry, intensity):
        arrivals = _multi_arrivals(300, seed=4)
        plan = standard_plan(intensity, 300, seed=3)
        factory = MULTI_POLICIES[name]
        expected = _outcome(
            lambda links: _reference_multi(factory(), arrivals, plan, RETRIES[retry], links)
        )
        for vector in (True, False):
            got = _outcome(
                lambda links: _installed_multi(
                    factory(), arrivals, plan, RETRIES[retry], vector, 1 << 62, links
                )
            )
            assert got == expected

    def test_installed_links_keep_the_wrapper_numbering(self):
        policy = MULTI_POLICIES["combined"]()
        names = [
            link.name
            for session in policy.sessions
            for link in (session.channels.regular_link, session.channels.overflow_link)
        ] + [policy.extra_link.name]
        links = install_signaling(policy, FaultPlan((), seed=0))
        assert [link.name for link in links] == names
        assert [link.channel for link in links] == list(range(2 * MULTI_K + 1))
        assert policy.extra_link is links[-1]
