"""Queueing substrate: bit queues, links, channels, sessions."""

from repro.network.channel import SessionChannels
from repro.network.link import BandwidthChange, Link
from repro.network.queue import BitQueue
from repro.network.session import Session
from repro.network.shaper import is_conforming

__all__ = [
    "BandwidthChange",
    "BitQueue",
    "Link",
    "is_conforming",
    "Session",
    "SessionChannels",
]
