"""Policy interfaces shared by all allocation algorithms.

Two shapes of policy exist in the paper:

* **Single-session** (:class:`BandwidthPolicy`) — a pure decision rule: each
  slot it observes the new arrivals and the carried-over backlog and sets the
  bandwidth for the slot.  The engine owns the FIFO queue.  Figure 3, the
  Theorem 7 variant, and every baseline are of this shape.

* **Multi-session** (:class:`MultiSessionPolicy`) — owns its per-session
  regular/overflow queues because the algorithms *re-parent* bits between
  queues (Figures 4 and 5, and the combined algorithm of §4).  Each slot the
  policy ingests the arrival vector, updates allocations, serves the queues
  (each delivery folds into its session's delay histogram), and returns
  the bits each session delivered; the engine only feeds and records.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Sequence

from repro.errors import ConfigError
from repro.network.channel import SessionChannels
from repro.network.link import BandwidthChange, Link
from repro.network.queue import EPSILON
from repro.network.session import Session
from repro.obs.runtime import count as obs_count


def check_arrival(bits: float) -> None:
    """ConfigError unless ``bits`` is finite and non-negative.

    The per-slot twin of :func:`~repro.core.envelope.arrival_array`: a NaN
    compares False against every threshold, so it would slip past each
    test a policy makes.
    """
    if not 0.0 <= bits < math.inf:
        raise ConfigError(f"arrivals must be finite and >= 0, got {bits!r}")


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
    def step(self, t: int, arrivals: Sequence[float]) -> list[float]:
        """Run one slot: ingest arrivals, adjust allocations, serve.

        Returns the bits each session delivered, in session order;
        deliveries routed through an extra global channel count for the
        owning session and fold into its histogram, so delay accounting
        stays exact.
        """

    def _serve_sessions(self, t: int) -> list[float]:
        """Serve every session's channels for slot ``t``, in session order;
        return the bits each delivered."""
        fifo = self.fifo
        return [session.channels.serve(t, fifo, session) for session in self.sessions]

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


class RegularOverflowPolicy(MultiSessionPolicy):
    """Shared machinery of Figures 4 and 5 (Sections 3.1 and 3.2).

    Each session has a regular channel, allocated in quanta of ``B_O/k``,
    and an overflow channel that drains bursts moved out of the regular
    queue.  A session's regular queue *outgrew* its allocation when it
    holds more than ``B_i^r · D_O`` bits; the session then gets another
    quantum.  A stage ends when the regular channel passes ``2·B_O``: that
    stage-end test is the only rule that couples the sessions.

    The vectorized engine (:mod:`repro.sim.vector`) drives a subclass
    through :meth:`begin_slot`, :attr:`next_joint_decision`, :meth:`watch`,
    :meth:`local_event`, :meth:`stage_ends` and :meth:`book`; ``step``
    runs the same rules slot by slot.

    Args:
        k: number of sessions.
        offline_bandwidth: ``B_O`` — the comparator's total bandwidth.
        offline_delay: ``D_O`` — the comparator's delay bound.
        fifo: serve each session FIFO with its pooled bandwidth.
        scale: ``B_A / B_O``, the online bandwidth bound.
    """

    #: Prefix of the policy's telemetry counters.
    _counters = ""

    def __init__(
        self,
        k: int,
        offline_bandwidth: float,
        offline_delay: int,
        fifo: bool,
        scale: float,
    ):
        super().__init__(k=k, fifo=fifo)
        self._scale = scale
        self._parameterize(offline_bandwidth)
        if offline_delay < 1:
            raise ConfigError(f"offline_delay must be >= 1, got {offline_delay!r}")
        self.offline_delay = int(offline_delay)
        self.online_delay = 2 * self.offline_delay
        self._started = False

    def _parameterize(self, offline_bandwidth: float) -> None:
        if offline_bandwidth <= 0:
            raise ConfigError(
                f"offline_bandwidth must be > 0, got {offline_bandwidth!r}"
            )
        self.offline_bandwidth = float(offline_bandwidth)
        self.max_bandwidth = self._scale * self.offline_bandwidth
        self.quantum = self.offline_bandwidth / self.k
        self.regular_cap = 2.0 * self.offline_bandwidth

    def _reset(self, t: int, initial: bool) -> None:
        """RESET: restart every regular allocation at ``B_O / k``."""
        for session in self.sessions:
            session.channels.regular_link.set(t, self.quantum)
        if not initial:
            self.resets.append(t)
            obs_count(self._counters + ".resets")
        self.stage_starts.append(t)
        obs_count(self._counters + ".stage_starts")

    @abstractmethod
    def _grows(self, channels: SessionChannels, bits: float) -> bool:
        """Whether the session's rule at this slot, with ``bits`` arriving,
        adds a quantum to its regular allocation (reads, never mutates)."""

    def _limit(self, channels: SessionChannels) -> float:
        """Bits the regular queue may hold before it outgrew ``B_i^r·D_O``."""
        return channels.regular_link.bandwidth * self.offline_delay + EPSILON

    def _stage_over(self) -> bool:
        return self.total_regular > self.regular_cap + EPSILON

    # -- the session-major slice protocol (repro.sim.vector) -----------------

    def begin_slot(self, t: int) -> None:
        """Start-up at the first slot; afterwards a no-op."""
        if not self._started:
            self._started = True
            self._reset(t, initial=True)

    #: A session's rule runs at its own events (:meth:`watch`).
    local_events = True

    #: No decision reads every session: only the stage-end test couples them.
    next_joint_decision = None

    @abstractmethod
    def watch(self, index: int, t: int) -> tuple[int | None, float, tuple[int, int] | None]:
        """Session ``index``'s next local event at or after slot ``t``, as
        ``(end, limit, phase)`` for :func:`~repro.network.queue.replay_fifo`:
        an event at slot ``end`` (None: no timed event) or at the first
        slot whose regular queue holds more than ``limit`` bits."""

    @abstractmethod
    def local_event(self, t: int, index: int, bits: float) -> bool:
        """Run session ``index``'s rule at slot ``t``, where ``bits`` arrive;
        return True if the rule pushed them.

        The engine calls this only when :meth:`stage_ends` ruled out a
        stage end at ``t``; the session's queue work for the slot follows.
        """

    def stage_ends(self, t: int, indices: Sequence[int], arrivals: Sequence[float]) -> bool:
        """The stage-end test for local events of sessions ``indices`` (with
        these ``arrivals``) at slot ``t``: whether the regular channel would
        pass ``2·B_O``.  Reads only, and is never False where ``step``
        would RESET."""
        grown = {
            i for i, bits in zip(indices, arrivals)
            if self._grows(self.sessions[i].channels, bits)
        }
        total = sum(
            s.channels.regular_link.bandwidth + (self.quantum if s.index in grown else 0.0)
            for s in self.sessions
        )
        return total > self.regular_cap + EPSILON

    def book(self, t: int, stop: int) -> None:
        """Book the policy's no-op events in slots ``[t, stop)`` in bulk."""

    # -- diagnostics ---------------------------------------------------------

    @property
    def total_regular(self) -> float:
        return sum(s.channels.regular_link.bandwidth for s in self.sessions)
