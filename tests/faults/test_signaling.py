"""Unreliable signaling plane: link semantics, retries, installation."""

import pytest

from repro.core.baselines import StaticAllocator
from repro.core.phased import PhasedMultiSession
from repro.core.single_session import SingleSessionOnline
from repro.errors import ConfigError, SignalingError
from repro.network.link import Link
from repro.faults import (
    NO_RETRY,
    FaultPlan,
    HeadroomPolicy,
    RetryPolicy,
    SignalDelay,
    SignalOutage,
    UnreliableLink,
    install_signaling,
)

NULL = FaultPlan((), seed=0)
OUTAGE = FaultPlan((SignalOutage(0, 1000),), seed=0)  # every request lost
DELAY2 = FaultPlan((SignalDelay(delay=2),), seed=0)  # every request 2 late


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ConfigError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ConfigError):
            RetryPolicy(give_up="explode")

    def test_exponential_backoff_with_cap(self):
        retry = RetryPolicy(
            base_backoff=2, backoff_factor=2.0, max_backoff=5, jitter=0
        )
        assert retry.backoff(1, 0.0) == 2
        assert retry.backoff(2, 0.0) == 4
        assert retry.backoff(3, 0.0) == 5  # capped

    def test_backoff_caps_without_overflow(self):
        # 2.0 ** 1099 is out of float range; the cap applies before it.
        retry = RetryPolicy(max_attempts=2000)
        assert retry.backoff(1100, 0.0) == retry.max_backoff
        assert retry.backoff(1100, 0.999) == retry.max_backoff + retry.jitter

    def test_backoff_values_below_the_overflow_are_unchanged(self):
        for factor in (1.0, 1.5, 2.0, 3.0, 10.0):
            retry = RetryPolicy(
                max_attempts=2000, base_backoff=3, backoff_factor=factor,
                max_backoff=500, jitter=2,
            )
            for attempt in range(1, 300):
                base = 3 * factor ** (attempt - 1)
                expected = int(min(500.0, base)) + int(0.5 * 3)
                assert retry.backoff(attempt, 0.5) == expected

    def test_jitter_adds_seeded_slots(self):
        retry = RetryPolicy(base_backoff=1, backoff_factor=1.0, jitter=3)
        assert retry.backoff(1, 0.0) == 1
        assert retry.backoff(1, 0.999) == 1 + 3


class TestUnreliableLink:
    def test_reliable_under_null_plan(self):
        link = UnreliableLink("l", NULL)
        assert link.set(0, 5.0)
        assert link.bandwidth == 5.0
        assert link.change_count == 1

    def test_idempotent_set_opens_no_transaction(self):
        link = UnreliableLink("l", NULL)
        link.set(0, 5.0)
        assert not link.set(1, 5.0)
        assert link.requests == 1

    def test_latest_wins_supersedes_pending(self):
        link = UnreliableLink("l", DELAY2)
        link.set(0, 5.0)  # in flight, applies at t=2
        link.set(1, 7.0)  # supersedes, applies at t=3
        link.tick(2)
        assert link.bandwidth == 0.0
        link.tick(3)
        assert link.bandwidth == 7.0
        assert link.change_count == 1  # one applied change only

    def test_revert_cancels_pending(self):
        link = UnreliableLink("l", DELAY2)
        link.set(0, 5.0)
        link.set(1, 0.0)  # back to applied value: transaction cancelled
        for t in range(2, 6):
            link.tick(t)
        assert link.bandwidth == 0.0
        assert link.change_count == 0

    def test_delayed_application(self):
        link = UnreliableLink("l", DELAY2)
        assert not link.set(0, 5.0)  # accepted but not applied yet
        assert link.target == 5.0
        assert link.bandwidth == 0.0
        link.tick(1)
        assert link.bandwidth == 0.0
        link.tick(2)
        assert link.bandwidth == 5.0

    def test_give_up_hold_keeps_old_value(self):
        link = UnreliableLink("l", OUTAGE, NO_RETRY)
        assert not link.set(0, 5.0)
        assert link.bandwidth == 0.0
        assert link.give_ups == 1
        assert link.drops == 1
        assert link.target == 0.0  # transaction abandoned

    def test_give_up_raise(self):
        retry = RetryPolicy(max_attempts=1, give_up="raise")
        link = UnreliableLink("l", OUTAGE, retry)
        with pytest.raises(SignalingError):
            link.set(0, 5.0)

    def test_retries_follow_backoff(self):
        retry = RetryPolicy(
            max_attempts=3, base_backoff=2, backoff_factor=2.0, jitter=0
        )
        link = UnreliableLink("l", OUTAGE, retry)
        link.set(0, 5.0)  # attempt 1 dropped, retry due t=2
        link.tick(1)
        assert link.retries == 0
        link.tick(2)  # attempt 2 dropped, retry due t=6
        assert link.retries == 1
        for t in range(3, 6):
            link.tick(t)
        assert link.retries == 1
        link.tick(6)  # attempt 3 dropped -> give up
        assert link.retries == 2
        assert link.give_ups == 1

    def test_long_outage_outlasts_1025_attempts(self):
        retry = RetryPolicy(
            max_attempts=2000, base_backoff=1, max_backoff=1, jitter=0
        )
        link = UnreliableLink("l", FaultPlan((SignalOutage(0, 5000),), seed=0), retry)
        link.set(0, 5.0)
        for t in range(1, 2100):
            link.tick(t)
        assert link.drops == 2000
        assert link.retries == 1999
        assert link.give_ups == 1
        assert link.bandwidth == 0.0
        assert link.requested == 5.0

    def test_requested_survives_a_give_up(self):
        link = UnreliableLink("l", OUTAGE, NO_RETRY)
        link.set(0, 5.0)
        assert link.requested == 5.0
        assert link.target == 0.0
        assert not link.idle
        link.resend(0)  # set was called at t=0: nothing more is sent
        assert link.requests == 1
        link.resend(1)  # a new slot without set: the intent is re-sent
        assert link.requests == 2
        assert link.give_ups == 2

    def test_requested_changes_follow_the_epsilon_rule(self):
        link = UnreliableLink("l", DELAY2)
        link.set(0, 5.0)
        link.set(1, 5.0 + 1e-12)  # within CHANGE_EPSILON: same intent
        link.set(2, 7.0)
        assert link.requested == 7.0
        assert link.requested_changes == 2
        assert link.change_count == 0  # nothing applied yet
        assert Link("reliable", 3.0).requested == 3.0

    def test_idle_once_the_grant_is_the_intent(self):
        link = UnreliableLink("l", DELAY2)
        assert link.idle
        link.set(0, 5.0)
        assert not link.idle
        link.tick(2)
        assert link.idle

    def test_negative_bandwidth_rejected(self):
        link = UnreliableLink("l", NULL)
        with pytest.raises(ConfigError):
            link.set(0, -1.0)


def _slot(policy, t, arrivals, backlog):
    """One engine slot on a signaled single-session policy: tick, decide,
    re-send, and the grant the engine serves."""
    policy.link.tick(t)
    policy.decide(t, arrivals, backlog)
    policy.link.resend(t)
    return policy.link.bandwidth


class TestUnreliableSignaling:
    """Single-session signaling: ``install_signaling`` on the policy."""

    def test_null_plan_is_transparent(self):
        policy = StaticAllocator(4.0)
        install_signaling(policy, NULL)
        assert _slot(policy, 0, 1.0, 0.0) == 4.0
        assert policy.link.requested == 4.0

    def test_grant_lags_request_under_delay(self):
        policy = StaticAllocator(4.0)
        install_signaling(policy, DELAY2)
        assert _slot(policy, 0, 1.0, 0.0) == 0.0  # request in flight
        assert policy.link.requested == 4.0
        _slot(policy, 1, 0.0, 1.0)
        assert _slot(policy, 2, 0.0, 1.0) == 4.0  # applied by tick(2)

    def test_stage_accounting_aliases_inner(self):
        # The plane sits on the link: the stage lists stay the policy's own.
        policy = SingleSessionOnline(64.0, 8, 0.25, 16)
        stage_starts, resets = policy.stage_starts, policy.resets
        install_signaling(policy, NULL)
        _slot(policy, 0, 10.0, 0.0)  # empty backlog: a stage opens
        for t in range(1, 30):
            _slot(policy, t, 10.0, 10.0)
        assert type(policy) is SingleSessionOnline
        assert policy.stage_starts is stage_starts
        assert policy.resets is resets
        assert len(policy.stage_starts) > 0

    def test_counters_surface_link_totals(self):
        policy = StaticAllocator(4.0)
        (link,) = install_signaling(policy, OUTAGE, NO_RETRY)
        _slot(policy, 0, 1.0, 0.0)
        assert link is policy.link
        assert link.requests == 1
        assert link.drops == 1
        assert link.give_ups == 1

    def test_keeps_the_link_name(self):
        policy = SingleSessionOnline(64.0, 8, 0.25, 16)
        (link,) = install_signaling(policy, NULL)
        assert link.name == "fig3"
        assert link.channel == 0


class TestHeadroomPolicy:
    def test_over_requests_up_to_cap(self):
        policy = HeadroomPolicy(StaticAllocator(10.0), 1.5, cap=12.0)
        assert policy.decide(0, 0.0, 0.0) == 12.0  # 15 capped at 12

    def test_cap_defaults_to_inner_max(self):
        policy = HeadroomPolicy(StaticAllocator(10.0), 1.5)
        assert policy.decide(0, 0.0, 0.0) == 10.0

    def test_factor_validated(self):
        with pytest.raises(ConfigError):
            HeadroomPolicy(StaticAllocator(1.0), 0.5)


def _multi_slot(policy, links, t, arrivals):
    """One engine slot on a signaled multi-session policy."""
    for link in links:
        link.tick(t)
    return policy.step(t, arrivals)


class TestUnreliableMultiSignaling:
    """Multi-session signaling: ``install_signaling`` on every link."""

    def test_wraps_every_link(self):
        policy = PhasedMultiSession(3, offline_bandwidth=32.0, offline_delay=8)
        links = install_signaling(policy, NULL)
        for session in policy.sessions:
            assert isinstance(session.channels.regular_link, UnreliableLink)
            assert isinstance(session.channels.overflow_link, UnreliableLink)
        channels = [link.channel for link in links]
        assert channels == sorted(set(channels))  # distinct fault channels
        assert type(policy) is PhasedMultiSession

    def test_null_plan_matches_bare_policy(self):
        arrivals = [[4.0, 2.0], [0.0, 6.0], [3.0, 3.0], [0.0, 0.0]] * 40
        bare = PhasedMultiSession(2, offline_bandwidth=16.0, offline_delay=4)
        signaled = PhasedMultiSession(2, offline_bandwidth=16.0, offline_delay=4)
        links = install_signaling(signaled, NULL)
        for t, slot in enumerate(arrivals):
            bare.step(t, slot)
            _multi_slot(signaled, links, t, slot)
        bare_bw = [s.channels.total_bandwidth for s in bare.sessions]
        signaled_bw = [s.channels.total_bandwidth for s in signaled.sessions]
        assert bare_bw == signaled_bw
        assert signaled.change_count == bare.change_count

    def test_outage_freezes_allocations(self):
        policy = PhasedMultiSession(2, offline_bandwidth=16.0, offline_delay=4)
        links = install_signaling(policy, OUTAGE, NO_RETRY)
        for t in range(20):
            _multi_slot(policy, links, t, [8.0, 8.0])
        assert all(link.bandwidth == 0.0 for link in links)
        assert sum(link.give_ups for link in links) > 0
