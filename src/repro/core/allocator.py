"""Policy interfaces shared by all allocation algorithms.

Two shapes of policy exist in the paper:

* **Single-session** (:class:`BandwidthPolicy`) — a pure decision rule: each
  slot it observes the new arrivals and the carried-over backlog and sets the
  bandwidth for the slot.  The engine owns the FIFO queue.  Figure 3, the
  Theorem 7 variant, and every baseline are of this shape.

* **Multi-session** (:class:`MultiSessionPolicy`) — owns its per-session
  regular/overflow queues because the algorithms *re-parent* bits between
  queues (Figures 4 and 5, and the combined algorithm of §4).  Each slot the
  policy ingests the arrival vector, updates allocations, serves the queues,
  and returns the per-session delivery records; the engine only feeds and
  records.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

from repro.errors import ConfigError
from repro.network.link import BandwidthChange, Link
from repro.network.queue import ServeResult
from repro.network.session import Session


class BandwidthPolicy(ABC):
    """Single-session allocation policy.

    Subclasses implement :meth:`decide`; they must route every allocation
    through ``self.link`` so the change accounting is uniform, and read
    their own allocation as ``self.link.requested`` (under the signaling
    plane of :mod:`repro.faults` the grant may lag the request).
    """

    def __init__(self, name: str, max_bandwidth: float):
        if max_bandwidth <= 0:
            raise ConfigError(f"max_bandwidth must be > 0, got {max_bandwidth!r}")
        self.link = Link(name)
        self.max_bandwidth = float(max_bandwidth)
        #: Slots at which a new stage began (competitive accounting).
        self.stage_starts: list[int] = []
        #: Slots at which a stage *ended* and a RESET was triggered; the
        #: initial start-up is not a reset.
        self.resets: list[int] = []

    @abstractmethod
    def decide(self, t: int, arrivals: float, backlog: float) -> float:
        """Choose the bandwidth for slot ``t``.

        Args:
            t: current slot.
            arrivals: bits that arrived at the start of this slot.
            backlog: bits carried over from previous slots (excludes
                ``arrivals``); ``backlog == 0`` means the queue was empty at
                the end of the previous slot.

        Returns:
            The bandwidth to use during slot ``t`` (must be
            ``<= max_bandwidth``).
        """

    @property
    def change_count(self) -> int:
        """Number of genuine bandwidth changes so far."""
        return self.link.change_count

    @property
    def changes(self) -> list[BandwidthChange]:
        return self.link.changes

    @property
    def completed_stages(self) -> int:
        """Stages that *ended* (each forces >= 1 offline change; Lemma 1)."""
        return len(self.resets)


class MultiSessionPolicy(ABC):
    """Multi-session allocation policy owning its session queues."""

    def __init__(self, k: int, fifo: bool = False):
        if k < 1:
            raise ConfigError(f"k must be >= 1, got {k!r}")
        self.k = int(k)
        self.fifo = bool(fifo)
        self.sessions = [Session(i) for i in range(self.k)]
        self.stage_starts: list[int] = []
        self.resets: list[int] = []
        #: Optional extra channel (the combined algorithm's global overflow).
        self.extra_link: Link | None = None

    @abstractmethod
    def step(self, t: int, arrivals: Sequence[float]) -> list[ServeResult]:
        """Run one slot: ingest arrivals, adjust allocations, serve.

        Returns one :class:`ServeResult` per session, in session order;
        deliveries routed through an extra global channel must be folded
        into the owning session's result so delay accounting stays exact.
        """

    # -- uniform accounting ------------------------------------------------

    @property
    def total_allocated(self) -> float:
        """Total bandwidth currently allocated across all channels."""
        total = sum(s.channels.total_bandwidth for s in self.sessions)
        if self.extra_link is not None:
            total += self.extra_link.bandwidth
        return total

    @property
    def total_requested(self) -> float:
        """Total bandwidth currently *requested* across all channels.

        Uses each link's ``target`` (== allocated for reliable links), so
        under an unreliable signaling plane this is the algorithm's intent
        while :attr:`total_allocated` is what the plane has granted.
        """
        total = sum(
            s.channels.regular_link.target + s.channels.overflow_link.target
            for s in self.sessions
        )
        if self.extra_link is not None:
            total += self.extra_link.target
        return total

    @property
    def total_backlog(self) -> float:
        return sum(s.backlog for s in self.sessions)

    def session_backlogs(self) -> list[float]:
        """Bits each session has queued, wherever the policy holds them."""
        return [s.backlog for s in self.sessions]

    @property
    def local_change_count(self) -> int:
        """Per-session channel changes (the paper's "local changes")."""
        return sum(s.channels.change_count for s in self.sessions)

    @property
    def change_count(self) -> int:
        """All changes, including any extra global channel."""
        total = self.local_change_count
        if self.extra_link is not None:
            total += self.extra_link.change_count
        return total

    @property
    def completed_stages(self) -> int:
        """Stages that ended (>= 1 offline change each; Lemma 13)."""
        return len(self.resets)
