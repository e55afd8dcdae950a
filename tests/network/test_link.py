"""Tests for the bandwidth link and its change accounting."""

import pytest

from repro.errors import ConfigError
from repro.network.link import CHANGE_EPSILON, Link


class TestLink:
    def test_initial(self):
        link = Link("x")
        assert link.bandwidth == 0.0
        assert link.change_count == 0

    def test_negative_rejected(self):
        with pytest.raises(ConfigError):
            Link().set(0, -1)
        with pytest.raises(ConfigError):
            Link(bandwidth=-1)

    def test_set_records_change(self):
        link = Link()
        assert link.set(0, 4.0)
        assert link.change_count == 1
        assert link.changes[0].old == 0.0
        assert link.changes[0].new == 4.0

    def test_same_value_is_free(self):
        link = Link()
        link.set(0, 4.0)
        assert not link.set(1, 4.0)
        assert not link.set(2, 4.0 + CHANGE_EPSILON / 2)
        assert link.change_count == 1

    def test_add(self):
        link = Link()
        link.add(0, 2.0)
        link.add(1, 3.0)
        assert link.bandwidth == 5.0
        assert link.change_count == 2
        assert not link.add(2, 0.0)

    def test_changes_are_recorded_in_slot_order(self):
        link = Link()
        for t in [0, 5, 10, 15]:
            link.set(t, t + 1.0)
        assert [c.t for c in link.changes] == [0, 5, 10, 15]
