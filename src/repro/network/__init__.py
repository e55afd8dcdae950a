"""Queueing substrate: bit queues, links, channels, sessions."""

from repro.network.channel import SessionChannels
from repro.network.link import BandwidthChange, Link
from repro.network.queue import BitQueue
from repro.network.session import Session

__all__ = [
    "BandwidthChange",
    "BitQueue",
    "Link",
    "Session",
    "SessionChannels",
]
