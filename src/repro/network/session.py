"""Per-session state wrapper used by multi-session policies and traces."""

from __future__ import annotations

from repro.network.channel import SessionChannels


class Session:
    """A session: channel pair, cumulative traffic counters and the
    bits-weighted delay histogram its deliveries fold into."""

    def __init__(self, index: int):
        self.index = index
        self.channels = SessionChannels(index)
        self.bits_arrived = 0.0
        self.bits_delivered = 0.0
        self.max_delay = 0
        #: Delay (slots) -> bits delivered at that delay, in first-delivery order.
        self.histogram: dict[int, float] = {}

    def __repr__(self) -> str:
        return (
            f"Session(i={self.index}, in={self.bits_arrived:.1f}, "
            f"out={self.bits_delivered:.1f}, max_delay={self.max_delay})"
        )

    def push(self, t: int, bits: float) -> None:
        """Record and enqueue new arrivals."""
        self.bits_arrived += bits
        self.channels.push(t, bits)

    @property
    def backlog(self) -> float:
        """Bits queued across both channels."""
        return self.channels.total_queued
