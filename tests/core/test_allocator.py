"""Tests for the policy base classes."""

import pytest

from repro.core.allocator import BandwidthPolicy, MultiSessionPolicy
from repro.errors import ConfigError


class _FixedPolicy(BandwidthPolicy):
    def decide(self, t, arrivals, backlog):
        self.link.set(t, min(self.max_bandwidth, arrivals))
        return self.link.bandwidth


class _NoopMulti(MultiSessionPolicy):
    def step(self, t, arrivals):
        for session, bits in zip(self.sessions, arrivals):
            if bits > 0:
                session.push(t, bits)
        return [0.0] * self.k


class TestBandwidthPolicy:
    def test_validation(self):
        with pytest.raises(ConfigError):
            _FixedPolicy("x", 0)

    def test_change_accounting(self):
        policy = _FixedPolicy("x", 10)
        policy.decide(0, 4, 0)
        policy.decide(1, 4, 0)
        policy.decide(2, 7, 0)
        assert policy.change_count == 2
        assert [c.new for c in policy.changes] == [4, 7]

    def test_completed_stages_counts_resets(self):
        policy = _FixedPolicy("x", 10)
        assert policy.completed_stages == 0
        policy.resets.append(5)
        assert policy.completed_stages == 1


class TestMultiSessionPolicy:
    def test_validation(self):
        with pytest.raises(ConfigError):
            _NoopMulti(0)

    def test_backlog_and_allocation_aggregation(self):
        policy = _NoopMulti(3)
        policy.step(0, [2.0, 0.0, 5.0])
        assert policy.total_backlog == pytest.approx(7.0)
        policy.sessions[0].channels.regular_link.set(0, 3.0)
        policy.sessions[1].channels.overflow_link.set(0, 1.0)
        assert policy.total_allocated == pytest.approx(4.0)
        assert policy.local_change_count == 2
        assert policy.change_count == 2  # no extra link by default

    def test_extra_link_included_when_present(self):
        from repro.network.link import Link

        policy = _NoopMulti(1)
        policy.extra_link = Link("extra")
        policy.extra_link.set(0, 9.0)
        assert policy.total_allocated == pytest.approx(9.0)
        assert policy.change_count == 1
        assert policy.local_change_count == 0
