"""Tests for the scheduled-event queue."""

import pytest

from repro.errors import SimulationError
from repro.sim.events import EventQueue


class TestEventQueue:
    def test_fire_in_time_order(self):
        fired = []
        q = EventQueue()
        q.schedule(5, lambda t: fired.append(("a", t)))
        q.schedule(3, lambda t: fired.append(("b", t)))
        q.schedule(5, lambda t: fired.append(("c", t)))
        assert q.fire_due(4) == 1
        assert fired == [("b", 4)]
        assert q.fire_due(5) == 2
        # Same-slot ties break by insertion order.
        assert fired == [("b", 4), ("a", 5), ("c", 5)]
        assert len(q) == 0

    def test_schedule_after(self):
        fired = []
        q = EventQueue()
        q.schedule_after(10, 4, lambda t: fired.append(t))
        assert q.next_due() == 14
        q.fire_due(13)
        assert fired == []
        q.fire_due(14)
        assert fired == [14]

    def test_negative_delay_raises(self):
        with pytest.raises(SimulationError):
            EventQueue().schedule_after(0, -1, lambda t: None)

    def test_clear(self):
        q = EventQueue()
        q.schedule(1, lambda t: None)
        q.clear()
        assert len(q) == 0
        assert q.next_due() is None

    def test_callback_can_reschedule(self):
        q = EventQueue()
        fired = []

        def recurring(t):
            fired.append(t)
            if len(fired) < 3:
                q.schedule(t + 2, recurring)

        q.schedule(0, recurring)
        for t in range(10):
            q.fire_due(t)
        assert fired == [0, 2, 4]
