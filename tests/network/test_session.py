"""Tests for the per-session counters."""

from repro.network.session import Session


class TestSession:
    def test_push_counts(self):
        s = Session(0)
        s.push(0, 5)
        s.push(1, 3)
        assert s.bits_arrived == 8
        assert s.backlog == 8

    def test_serve_tracks_delay_and_bits(self):
        s = Session(0)
        s.push(0, 2)
        s.push(2, 2)
        s.channels.regular_link.set(0, 4)
        assert s.channels.serve(3, False, s) == 4
        assert s.bits_delivered == 4
        assert s.max_delay == 3
        assert s.histogram == {3: 2.0, 1: 2.0}
        # A later, smaller delay does not lower the max.
        s.push(3, 1)
        s.channels.serve(4, False, s)
        assert s.max_delay == 3

    def test_serve_empty(self):
        s = Session(0)
        s.channels.regular_link.set(0, 4)
        assert s.channels.serve(0, False, s) == 0
        assert s.bits_delivered == 0
        assert s.max_delay == 0
        assert s.histogram == {}
