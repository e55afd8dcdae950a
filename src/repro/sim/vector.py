"""The simulation engine: one incremental loop with policy-quiet slices.

A scalar step pays Python interpreter overhead for every slot even though
the paper's policies change their allocation only O(log B_A) times per
stage.  Between those events the policy's per-slot work is a pure
function of the arrivals, and the queue's is a FIFO replay at a constant
capacity.  This module exploits that:

* One engine scaffold (``_Engine``) for one and for k sessions: the
  ``step(n_slots)`` loop that lets callers advance a simulation in bounded
  increments (slices where they apply, the scalar step elsewhere, the
  drain tail under its cap) and the ``done``/``run`` bookkeeping.  Each
  engine adds only its scalar slot body, its slices and its trace:
  :class:`EngineState` (one session: it owns the queue, and takes
  streaming ingestion via :meth:`~EngineState.feed`) and
  :class:`MultiEngineState` (the policy owns the k sessions' queues).
  The entry points in :mod:`repro.sim.engine` are thin wrappers over them.
* **Policy-quiet slices**: a run of slots in which the policy provably
  keeps its allocation and runs no decision that reads the queue.  For
  :class:`SingleSessionOnline` in a stage, :meth:`StageKernel.scan
  <repro.core.stagekernel.StageKernel.scan>` finds the next stage end or
  rung climb over a galloping window (it starts small and doubles up to
  :data:`CHUNK`; the first window after an event is walked slot by slot
  with :meth:`StageKernel.walk <repro.core.stagekernel.StageKernel.walk>`);
  Figure 3 never reads the backlog mid-stage, so the queue does not end
  the slice.  In RESET the slice holds ``B_A`` until the pre-push backlog
  is ``<= EPSILON``.  A primed :class:`StaticAllocator` is always quiet.
  A fault plan does not end a slice either: a :class:`LinkDegradation`
  window changes only what the wire serves and an :class:`IngressDrop`
  only how many bits the policy is handed, so the policy and the queue
  see the kept arrivals ``offered - offered * (1.0 - keep)`` and the
  queue serves ``allocation * capacity`` per slot.  A slice thus ends
  only at a policy event, the ``step`` budget or the horizon.  Its queue
  work is one :func:`~repro.network.queue.replay_fifo` call and its
  columns one ``record_keepup_block`` call; the event slot after it
  takes the ordinary scalar step, as does the drain tail.
* **Session-major slices**: in Figures 4 and 5 a session's allocation
  changes only at its own *local events*: a phase end that is not a
  no-op for it (its regular queue above ``B_i^r·D_O``, or a non-zero
  overflow allocation to clear), a TEST that fires after a push, or one
  of its REDUCE timers.  Only the stage-end test on the total regular
  bandwidth couples the sessions.  So a slice replays each session's
  two queues with one :func:`~repro.network.queue.replay_fifo` call up
  to its own next event (the policy's ``watch`` names it), runs the
  session's rule there (``local_event``, once ``stage_ends`` has ruled
  out a RESET) and goes on, in global event order.  The epoch allocators
  (:class:`MaxMinFairAllocator`, :class:`PriorityTierAllocator`) have no
  local events (``local_events`` is False), but an epoch reads every
  session (``next_joint_decision``): every session replays straight from
  one epoch to the next, with nothing to watch or roll back, and
  ``begin_slot`` runs the epoch there.  No-op phase ends are booked in bulk
  (``book``).  A slice ends at the ``step`` budget (at most
  :data:`CHUNK` slots), a slot where a fault acts, the horizon (the
  drain tail takes scalar steps) or a RESET.  A session with local
  events replays at most ``_LANE_WINDOW`` slots ahead of the others, and
  a snapshot taken whenever it resumes lets a RESET send the sessions
  that replayed past it back there and up to it; the RESET slot takes
  the scalar step.
  Stretches with equal allocations go to the recorder as one
  ``record_keepup_block`` call.  :func:`multi_vector_capable` names the
  policies this holds for.
* **The signaling plane** (:func:`~repro.faults.signaling.install_signaling`)
  sits on the policy's links, so the policy keeps its type and its
  slices.  A single-session scalar step ticks the link, lets the policy
  decide, re-sends ``link.requested`` if the policy sent nothing that
  slot, and serves ``link.bandwidth``; a multi-session step ticks every
  unreliable link, in installation order, before ``policy.step``.  An
  idle plane (nothing pending, ``requested == bandwidth``) does nothing,
  so a slice starts only on an idle plane, and a session-major slice
  ends at its first local event, which takes the scalar step, or at a
  slot whose ``begin_slot`` opened a transaction (the scalar step there
  re-runs ``begin_slot``, which then does nothing).

Exactness of a slice rests on "same float operations, same order":

* ``StageKernel.scan`` commits the kernel state repeated
  ``StageKernel.advance`` calls would (its accumulates are sequential);
* :func:`~repro.network.queue.replay_fifo`, the one replay loop, runs
  the per-slot ``push`` and ``serve`` float operations in the per-slot
  order, and it serves through the one serve kernel
  (:func:`~repro.network.queue.serve_fifo`), which folds each delivery
  into the delay histogram as it is served; the sums it defers (a
  keep-up run's delay-0 bin, a session's ``bits_arrived`` and
  ``bits_delivered``) are still added one slot at a time, in slot order;
  a session's floats depend only on its own arrivals and allocations,
  so replaying sessions one after another instead of slot by slot
  changes none of them;
* the recorded columns are the ones a scalar step records for a slot in
  which the policy leaves idle links alone: granted = requested, the
  offered arrivals, ``dropped = 0.0 + offered * (1.0 - keep)`` and
  ``effective = allocation * capacity`` (for a fault-free run: nothing
  dropped, effective = granted); a multi-session slice records only
  slots no fault acts on.

So traces are bit-identical to an all-scalar run by construction.  The
reference rule is the exact-type check in :func:`vector_capable` and
:func:`multi_vector_capable`: an exact subclass of a policy takes the
scalar step at every slot, so the identity tests build their all-scalar
reference from a trivial subclass.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core.baselines import StaticAllocator
from repro.core.envelope import arrival_array
from repro.core.maxminfair import MaxMinFairAllocator
from repro.core.phased import PhasedMultiSession
from repro.core.prioritytier import PriorityTierAllocator
from repro.core.single_session import SingleSessionOnline
from repro.errors import ConfigError, SimulationError
from repro.faults.signaling import UnreliableLink
from repro.network.queue import EPSILON, BitQueue, replay_fifo
from repro.obs.runtime import get_telemetry
from repro.sim.recorder import (
    MultiSessionRecorder,
    MultiSessionTrace,
    SingleSessionRecorder,
    SingleSessionTrace,
)

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.faults.plan import FaultPlan

#: Longest policy-quiet slice.  Bounds transient memory (a few float64
#: arrays and Python lists of this length) while amortizing numpy call
#: overhead over thousands of slots.
CHUNK = 16384

#: First window of a galloping search; each full window doubles the next.
_FIRST_WINDOW = 32

#: How far a session-major slice lets a session replay ahead of the
#: others: it bounds the replay a RESET rolls back.
_LANE_WINDOW = 1024


def vector_capable(policy) -> bool:
    """True when ``policy`` supports policy-quiet slices.

    Exact-type checks on purpose: subclasses may override decision
    machinery in ways a slice cannot see, so they stay on the scalar
    step.
    """
    return type(policy) in (SingleSessionOnline, StaticAllocator)


def multi_vector_capable(policy) -> bool:
    """True when ``policy`` supports session-major slices.

    Exact-type checks on purpose, as in :func:`vector_capable`: a
    subclass may override ``step``.  No extra (global-overflow) channel
    either: a slice records the extra allocation as 0.
    """
    # Imported here: repro.core.continuous imports repro.sim.
    from repro.core.continuous import ContinuousMultiSession

    return (
        type(policy)
        in (PhasedMultiSession, ContinuousMultiSession, MaxMinFairAllocator, PriorityTierAllocator)
        and policy.extra_link is None
    )


def _require_finite(bandwidths, t: int) -> None:
    for value in bandwidths:
        if not math.isfinite(value):
            raise SimulationError(
                f"policy produced non-finite bandwidth {value!r} at t={t}"
            )


def _plane(policy) -> list[UnreliableLink]:
    """A multi-session policy's unreliable links in the order
    :func:`~repro.faults.signaling.install_signaling` numbers them."""
    links = []
    for session in policy.sessions:
        links += (session.channels.regular_link, session.channels.overflow_link)
    links.append(policy.extra_link)
    return [link for link in links if isinstance(link, UnreliableLink)]


class _Column:
    """A 1-D array that grows by doubling its capacity.

    :attr:`view` is the filled prefix.  A reallocation copies into a new
    array, so earlier views (slices handed to a recorder) never change; an
    array passed to the constructor is adopted without a copy and never
    written.
    """

    def __init__(self, initial: np.ndarray):
        self._data = initial
        self.size = len(initial)

    @property
    def view(self) -> np.ndarray:
        return self._data[: self.size]

    def extend(self, chunk: np.ndarray) -> None:
        end = self.size + len(chunk)
        if end > len(self._data):
            grown = np.empty(max(end, 2 * len(self._data)), dtype=self._data.dtype)
            grown[: self.size] = self._data[: self.size]
            self._data = grown
        self._data[self.size : end] = chunk
        self.size = end


class _FaultSchedule:
    """A fault plan's per-slot factors, precomputed over the horizon.

    The engines read these arrays instead of querying the plan slot by
    slot; values are bit-identical to :meth:`FaultPlan.capacity_factor`
    and :meth:`FaultPlan.ingress_factor`, and are handed out as Python
    floats so no numpy scalar reaches a trace.  Drain slots past the
    horizon query the plan's capacity directly (they carry no arrivals).
    :meth:`kept`, :meth:`dropped` and :meth:`served` give a slice the
    scalar step's per-slot floats for a stretch of slots (with no plan:
    the offered bits, nothing and the allocation).
    """

    def __init__(self, plan: "FaultPlan | None"):
        self.plan = plan if plan is not None and not plan.is_null else None
        self.capacity = _Column(np.empty(0))
        self.ingress = _Column(np.empty(0))
        #: Slots where a fault acts (a factor is not 1), ascending; built by
        #: the first :meth:`next_hot` after an :meth:`extend`.
        self._hot: list[int] | None = None

    def extend(self, horizon: int) -> None:
        """Precompute every slot up to ``horizon``."""
        if self.plan is not None:
            start = self.capacity.size
            capacity = self.plan.capacity_factors(start, horizon)
            ingress = self.plan.ingress_factors(start, horizon)
            self.capacity.extend(capacity)
            self.ingress.extend(ingress)
            self._hot = None

    def next_hot(self, t: int) -> int | None:
        """The first slot at or after ``t`` where a fault acts (None: no
        more); the multi-session engine takes scalar steps there."""
        hot = self._hot
        if hot is None:
            acts = (self.capacity.view != 1.0) | (self.ingress.view != 1.0)
            hot = self._hot = np.flatnonzero(acts).tolist()
        i = bisect_left(hot, t)
        return hot[i] if i < len(hot) else None

    def capacity_at(self, t: int) -> float:
        if t < self.capacity.size:
            return float(self.capacity._data[t])
        return self.plan.capacity_factor(t)

    def ingress_at(self, t: int) -> float:
        return float(self.ingress._data[t])

    def kept(self, offered: np.ndarray, start: int, stop: int) -> np.ndarray:
        """Bits slots ``[start, stop)`` hand the policy and the queue:
        ``offered - offered * (1.0 - keep)``, as the scalar step forms them
        (for ``keep == 1`` or nothing offered that is ``offered``)."""
        bits = offered[start:stop]
        if self.plan is None:
            return bits
        return bits - bits * (1.0 - self.ingress._data[start:stop])

    def dropped(self, offered: np.ndarray, start: int, stop: int) -> float | np.ndarray:
        """Recorded drops of slots ``[start, stop)`` on an unbounded queue:
        ``0.0 + offered * (1.0 - keep)``, the scalar step's ``lost +
        fault_dropped``."""
        if self.plan is None:
            return 0.0
        return 0.0 + offered[start:stop] * (1.0 - self.ingress._data[start:stop])

    def served(self, allocation: float, start: int, stop: int) -> float | np.ndarray:
        """The wire's bandwidth in slots ``[start, stop)``: ``allocation *
        capacity``, the scalar step's ``bandwidth * capacity_at(t)``."""
        if self.plan is None:
            return allocation
        return allocation * self.capacity._data[start:stop]


def _gallop(t: int, stop: int, advance, window: int) -> tuple[int, int]:
    """Slots from ``t`` (before ``stop``) that ``advance`` reports quiet.

    ``advance(at, width)`` consumes up to ``width`` slots from ``at`` and
    returns how many were quiet; a short answer is an event and ends the
    search.  Each full window doubles the next (up to :data:`CHUNK`), so
    an event ``k`` slots away costs O(log k) calls.  Returns the quiet
    slot count and the window to resume with: :data:`_FIRST_WINDOW` after
    an event, the grown window when ``stop`` cut the search short.
    """
    n = 0
    while t + n < stop:
        width = min(window, stop - t - n)
        quiet = advance(t + n, width)
        n += quiet
        if quiet < width:
            return n, _FIRST_WINDOW
        if width == window:
            window = min(2 * window, CHUNK)
    return n, window


class _Engine:
    """The scaffold both engines share: init and drain-cap bookkeeping,
    ``done``/``run`` and the ``step`` loop.

    An engine adds its scalar slot body (:meth:`_begin`), its slices
    (:meth:`_slice`) and ``finalize``, and names what the loop reads:
    ``_rows`` (the arrival rows, indexed by slot), ``_drain_row`` (a drain
    slot's arrivals), :meth:`_pending`, :attr:`backlog` and ``_sliced``
    (the exact-type rule, :func:`vector_capable` and
    :func:`multi_vector_capable`, admitted its policy).
    """

    #: Prefix of the once-per-``step`` telemetry.
    _telemetry = "engine.stream"
    #: What fails to drain, in the drain cap's error.
    _queues = "queue"

    def _start(self, drain: bool, max_drain_slots: int | None, faults, closed: bool) -> None:
        self.drain = bool(drain)
        self._max_drain_slots = max_drain_slots
        self._faults = _FaultSchedule(faults)
        self._faults.extend(self.horizon)
        self.t = 0
        self.closed = False
        if closed:
            self.close()

    def close(self) -> None:
        """No further arrivals: fixes the horizon and arms the drain cap
        (default ``4 * horizon + 1000`` extra slots)."""
        if self.closed:
            return
        self.closed = True
        cap = self._max_drain_slots
        self._cap = cap if cap is not None else 4 * self.horizon + 1000
        self._limit = self.horizon + self._cap

    @property
    def done(self) -> bool:
        """True when every ingested slot (and the drain tail) is simulated."""
        if self.t < self.horizon or not self.closed:
            return False
        return not (self.drain and self._pending())

    def run(self) -> None:
        """Simulate to completion (closes the state first)."""
        self.close()
        while not self.done:
            self.step(1 << 62)

    def step(self, n_slots: int) -> int:
        """Advance up to ``n_slots`` slots; return how many were simulated.

        Stops early when the ingested arrivals are exhausted (feed more or
        :meth:`close`) or the run is :attr:`done`.  Slicing a run into
        arbitrary ``step`` calls never changes the resulting trace.
        """
        slot = self._begin()
        rows = self._rows
        horizon = self.horizon
        sliced = self._sliced
        processed = 0
        t = self.t
        try:
            while processed < n_slots:
                if t < horizon:
                    if sliced:
                        taken = self._slice(t, min(n_slots - processed, horizon - t, CHUNK))
                        if taken:
                            t += taken
                            processed += taken
                            continue
                    slot(t, rows[t])
                elif not self.closed:
                    break
                elif self.drain and self._pending():
                    if t >= self._limit:
                        raise SimulationError(
                            f"{self._queues} failed to drain within {self._cap} extra "
                            f"slots (backlog {self.backlog:.3f})"
                        )
                    slot(t, self._drain_row)
                else:
                    break
                t += 1
                processed += 1
        finally:
            self.t = t
            self._end()
            # Live-observatory surface: one guarded emission per step()
            # call (never per slot), so the hot loop stays untouched and
            # a telemetry-off run pays one attribute check.
            tele = get_telemetry()
            if tele.enabled and processed:
                registry = tele.registry
                registry.counter(self._telemetry + ".slots_advanced").inc(processed)
                registry.gauge(self._telemetry + ".t").set(float(t))
                registry.gauge(self._telemetry + ".backlog").set(self.backlog)
        return processed

    def _end(self) -> None:
        """Undo what the scalar slot body left on the policy (``step``'s
        ``finally``)."""


class EngineState(_Engine):
    """Incremental single-session engine: advance in ``step(n_slots)`` bites.

    Traces are bit-identical regardless of how the run is sliced into
    ``step`` calls, and regardless of where policy-quiet slices begin and
    end.

    Args:
        policy: the allocation policy (drives one
            :class:`~repro.network.queue.BitQueue`).
        arrivals: initial arrival stream (more can be added via
            :meth:`feed` until :meth:`close`).
        drain: keep stepping with zero arrivals after the horizon until
            the queue empties.
        max_drain_slots: hard cap on extra drain slots (default
            ``4 * horizon + 1000``, evaluated at :meth:`close` time).
        queue_capacity: finite ingress buffer (None = unbounded; only an
            unbounded queue takes policy-quiet slices).
        faults: a :class:`~repro.faults.plan.FaultPlan` (None = fault-free);
            its capacity and ingress factors fold into policy-quiet slices
            (module docstring).
        closed: start closed (no further :meth:`feed`); the batch entry
            points use this.
    """

    _drain_row = 0.0

    def __init__(
        self,
        policy,
        arrivals: Sequence[float] | np.ndarray = (),
        *,
        drain: bool = True,
        max_drain_slots: int | None = None,
        queue_capacity: float | None = None,
        faults: "FaultPlan | None" = None,
        closed: bool = True,
    ):
        self.policy = policy
        self.queue = BitQueue("session", capacity=queue_capacity)
        self.recorder = SingleSessionRecorder()
        initial = arrival_array(arrivals, ndim=1)
        self._arrivals = _Column(initial)
        self._rows: list[float] = initial.tolist()
        self._sliced = vector_capable(policy) and queue_capacity is None
        self._kernel_policy = type(policy) is SingleSessionOnline
        #: Galloping window of the next slice search; it survives a slice
        #: cut short by a ``step`` budget, not one ended by an event.
        self._window = _FIRST_WINDOW
        self._start(drain, max_drain_slots, faults, closed)

    @property
    def horizon(self) -> int:
        """Arrival slots ingested so far."""
        return len(self._rows)

    @property
    def backlog(self) -> float:
        return self.queue.size

    def _pending(self) -> bool:
        return not self.queue.is_empty

    def feed(self, arrivals: Sequence[float] | np.ndarray) -> None:
        """Append more arrival slots (streaming ingestion)."""
        if self.closed:
            raise ConfigError("cannot feed a closed EngineState")
        chunk = arrival_array(arrivals, ndim=1)
        if chunk.size:
            self._arrivals.extend(chunk)
            self._rows.extend(chunk.tolist())
            self._faults.extend(len(self._rows))
            tele = get_telemetry()
            if tele.enabled:
                tele.registry.counter("engine.stream.fed_slots").inc(chunk.size)
                tele.registry.gauge("engine.stream.horizon").set(
                    float(len(self._rows))
                )

    #: Bound on the class itself, so each engine's ``step`` can be wrapped
    #: (timed) on its own class.
    step = _Engine.step

    def _begin(self):
        """The scalar slot body ``slot(t, offered)`` for one ``step`` call,
        over that call's hot locals; it also notes the policy's signaling
        plane (its link, when unreliable) for :meth:`_slice`."""
        policy = self.policy
        queue = self.queue
        recorder = self.recorder
        isfinite = math.isfinite
        decide = policy.decide
        push = queue.push
        serve = queue.serve
        histogram = recorder.histogram
        record = recorder.record
        faults = self._faults if self._faults.plan is not None else None
        link = policy.link
        plane = self._plane = link if isinstance(link, UnreliableLink) else None

        def slot(t: int, offered: float) -> None:
            kept = offered
            fault_dropped = 0.0
            if faults is not None and offered > 0.0:
                keep = faults.ingress_at(t)
                if keep < 1.0:
                    fault_dropped = offered * (1.0 - keep)
                    kept = offered - fault_dropped
            backlog = queue.size
            lost = push(t, kept)
            if plane is None:
                bandwidth = decide(t, kept, backlog)
            else:
                plane.tick(t)
                decide(t, kept, backlog)
                plane.resend(t)
                bandwidth = plane.bandwidth
            if not isfinite(bandwidth):
                raise SimulationError(
                    f"policy returned non-finite bandwidth {bandwidth!r} at t={t}"
                )
            if bandwidth < 0:
                raise SimulationError(f"policy returned negative bandwidth at t={t}")
            if faults is None:
                served = serve(t, bandwidth, histogram)
                record(t, offered, bandwidth, served, queue.size, dropped=lost)
            else:
                # Link degradation: the wire serves less than granted.
                requested = link.requested
                effective = bandwidth * faults.capacity_at(t)
                served = serve(t, effective, histogram)
                record(
                    t, offered, bandwidth, served, queue.size, dropped=lost + fault_dropped,
                    requested=requested, effective=effective,
                )

        return slot

    def _slice(self, t: int, budget: int) -> int:
        """Commit the policy-quiet slice that starts at ``t``; return its
        length (at most ``budget``; 0 when slot ``t`` needs the scalar step).

        Quiet: the policy keeps its allocation and runs no decision that
        reads the queue.  A fault plan is part of the slice: the policy
        and the queue see the kept arrivals, and the queue work is one
        :func:`~repro.network.queue.replay_fifo` at the allocation times
        each slot's capacity factor.  A slice starts only on an idle
        signaling plane.
        """
        if self._plane is not None and not self._plane.idle:
            return 0
        stop = t + budget
        policy = self.policy
        queue = self.queue
        faults = self._faults
        offered = self._arrivals.view
        allocation = policy.link.bandwidth
        histogram = self.recorder.histogram
        if not self._kernel_policy:  # StaticAllocator: quiet once primed.
            if allocation != policy.bandwidth:
                return 0
            delivered, backlog = replay_fifo(
                t, faults.kept(offered, t, stop), queue, faults.served(allocation, t, stop),
                histogram,
            )
        elif policy._in_stage:
            kernel = policy._kernel

            def quiet(at: int, width: int) -> int:
                bits = faults.kept(offered, at, at + width)
                # A short window costs less slot by slot than as one scan.
                return kernel.walk(bits.tolist()) if width <= _FIRST_WINDOW else kernel.scan(bits)

            n, self._window = _gallop(t, stop, quiet, self._window)
            if n == 0:
                return 0
            delivered, backlog = replay_fifo(
                t, faults.kept(offered, t, t + n), queue, faults.served(allocation, t, t + n),
                histogram,
            )
        elif queue._size > EPSILON:  # RESET holds B_A until the queue drains.
            delivered, backlog = [], []

            def drain(at: int, width: int) -> int:
                served, after = replay_fifo(
                    at,
                    faults.kept(offered, at, at + width),
                    queue,
                    faults.served(allocation, at, at + width),
                    histogram,
                    until_empty=True,
                )
                delivered.extend(served)
                backlog.extend(after)
                return len(served)

            _, self._window = _gallop(t, stop, drain, self._window)
        else:  # the slot opens a stage
            return 0
        n = len(delivered)
        self.recorder.record_keepup_block(
            offered[t : t + n],
            allocation,
            np.array(delivered),
            np.array(backlog),
            faults.dropped(offered, t, t + n),
            faults.served(allocation, t, t + n),
        )
        return n

    def finalize(self) -> SingleSessionTrace:
        """Build the trace for the slots simulated so far."""
        policy = self.policy
        return self.recorder.finalize(
            changes=policy.changes,
            stage_starts=policy.stage_starts,
            resets=policy.resets,
            horizon=self.horizon,
        )


class _Lane:
    """One session's progress through a session-major slice: it replays
    up to its own next local event (:meth:`advance`), and a
    :meth:`snapshot` taken at each resume lets it go back
    (:meth:`rollback`).  Without local events, it replays from one joint
    decision to the next."""

    __slots__ = (
        "session", "arrivals", "pos", "pushed", "delivered", "backlog", "_mark"
    )

    def __init__(self, session, arrivals: np.ndarray, t: int):
        self.session = session
        self.arrivals = arrivals
        #: First slot not yet replayed: the session's next local event,
        #: the edge of the replay window or the end of the slice.
        self.pos = t
        #: The policy pushed slot ``pos``'s arrivals when it ran the
        #: session's rule there, so the replay must not push them again.
        self.pushed = False
        self.delivered: list[float] = []
        self.backlog: list[float] = []
        self._mark: tuple | None = None

    def advance(self, end: int, fifo: bool, limit: float = math.inf, phase=None) -> None:
        """Replay up to slot ``end``, or to the first local event the stop
        arguments ``limit`` and ``phase`` (from the policy's ``watch``)
        find before it."""
        if end <= self.pos:
            return
        arrivals = self.arrivals[self.pos : end]
        if self.pushed:
            arrivals = arrivals.copy()
            arrivals[0] = 0.0
        session = self.session
        channels = session.channels
        capacity, overflow_capacity = channels.capacities(fifo)
        delivered, backlog = replay_fifo(
            self.pos,
            arrivals,
            channels.regular_queue,
            capacity,
            session.histogram,
            overflow=channels.overflow_queue,
            overflow_capacity=overflow_capacity,
            session=session,
            limit=limit,
            phase=phase,
        )
        self.delivered += delivered
        self.backlog += backlog
        if delivered:
            self.pos += len(delivered)
            self.pushed = False

    def snapshot(self) -> None:
        """Save what :meth:`rollback` restores."""
        session = self.session
        channels = session.channels
        self._mark = (
            self.pos,
            len(self.delivered),
            [list(chunk) for chunk in channels.regular_queue._chunks],
            channels.regular_queue._size,
            [list(chunk) for chunk in channels.overflow_queue._chunks],
            channels.overflow_queue._size,
            session.bits_arrived,
            session.bits_delivered,
            session.max_delay,
            dict(session.histogram),
            self.pushed,
        )

    def rollback(self, at: int, fifo: bool) -> None:
        """Restore the last :meth:`snapshot` and replay up to slot ``at``
        (no event lies before it)."""
        (self.pos, count, regular, r_size, overflow, o_size,
         arrived, delivered, worst, histogram, self.pushed) = self._mark
        session = self.session
        channels = session.channels
        for queue, chunks, size in (
            (channels.regular_queue, regular, r_size),
            (channels.overflow_queue, overflow, o_size),
        ):
            queue._chunks.clear()
            queue._chunks.extend(chunks)
            queue._size = size
        session.bits_arrived = arrived
        session.bits_delivered = delivered
        session.max_delay = worst
        session.histogram.clear()
        session.histogram.update(histogram)
        del self.delivered[count:]
        del self.backlog[count:]
        self.advance(at, fifo)


class MultiEngineState(_Engine):
    """Incremental multi-session engine: advance in ``step(n_slots)`` bites.

    The implementation behind ``run_multi_session``: traces are
    bit-identical regardless of how the run is sliced into ``step`` calls,
    and regardless of where session-major slices begin and end.

    Args:
        policy: the multi-session policy (owns the queues).
        arrivals: arrival matrix of shape ``(T, k)``.
        drain: keep stepping with zero arrivals until all queues empty.
        max_drain_slots: hard cap on extra drain slots (default
            ``4 * T + 1000``).
        faults: a :class:`~repro.faults.plan.FaultPlan`; link degradation
            scales each session's effective serving capacity (set on the
            session channels for the slot and reset to 1 when ``step``
            returns), ingress drops remove arriving bits before they reach
            the policy.  The combined algorithm's global channel is served
            inside the policy and is not degraded.  Fault slots always
            take the scalar step.
    """

    _telemetry = "engine.stream.multi"
    _queues = "queues"

    def __init__(
        self,
        policy,
        arrivals: Sequence[Sequence[float]] | np.ndarray,
        *,
        drain: bool = True,
        max_drain_slots: int | None = None,
        faults: "FaultPlan | None" = None,
    ):
        array = arrival_array(arrivals, ndim=2)
        horizon, k = array.shape
        if k != policy.k:
            raise ConfigError(f"arrivals have k={k} but policy has k={policy.k}")
        self.policy = policy
        self.k = k
        self.horizon = horizon
        self.recorder = MultiSessionRecorder(k)
        self._rows = array
        self._drain_row = np.zeros(k)
        #: One contiguous row of arrivals per session, for the slices.
        self._by_session = np.ascontiguousarray(array.T)
        self._sliced = multi_vector_capable(policy)
        #: The slot a slice last stopped before because it takes the
        #: scalar step (a RESET, or an event under the signaling plane).
        self._scalar_at = -1
        self._start(drain, max_drain_slots, faults, closed=True)

    @property
    def backlog(self) -> float:
        return self.policy.total_backlog

    def _pending(self) -> bool:
        return self.policy.total_backlog > 0

    #: Its own attribute, as in :class:`EngineState`.
    step = _Engine.step

    def _begin(self):
        """The scalar slot body ``slot(t, row)`` for one ``step`` call; it
        also notes the policy's signaling plane for :meth:`_slice`."""
        policy = self.policy
        horizon = self.horizon
        k = self.k
        sessions = policy.sessions
        policy_step = policy.step
        record = self.recorder.record
        faults = self._faults if self._faults.plan is not None else None
        plane = self._plane = _plane(policy)

        def slot(t: int, row: np.ndarray) -> None:
            offered = kept = row.tolist()
            fault_dropped = 0.0
            if faults is not None:
                factor = faults.capacity_at(t)
                for session in sessions:
                    session.channels.capacity_factor = factor
                if t < horizon:
                    keep = faults.ingress_at(t)
                    if keep < 1.0:
                        kept = [x * keep for x in offered]
                        fault_dropped = sum(offered) - sum(kept)
            for link in plane:
                link.tick(t)
            delivered = policy_step(t, kept)
            if len(delivered) != k:
                raise SimulationError(
                    f"policy returned {len(delivered)} results for k={k} at t={t}"
                )
            regular = [s.channels.regular_link.bandwidth for s in sessions]
            overflow = [s.channels.overflow_link.bandwidth for s in sessions]
            extra = policy.extra_link.bandwidth if policy.extra_link is not None else 0.0
            _require_finite((*regular, *overflow, extra), t)
            record(
                t, offered, regular, overflow, delivered, policy.session_backlogs(), extra,
                requested_total=policy.total_requested if faults is not None else None,
                dropped=fault_dropped,
            )

        return slot

    def _end(self) -> None:
        if self._faults.plan is not None:
            # A mid-run SimulationError must not leak degraded capacity
            # into the sessions' next run.
            for session in self.policy.sessions:
                session.channels.capacity_factor = 1.0

    def _slice(self, t: int, budget: int) -> int:
        """Advance the session-major slice that starts at ``t``, as the
        module docstring defines it; return its length (at most ``budget``;
        0 when slot ``t`` needs the scalar step).  A slice starts only on
        an idle signaling plane.
        """
        plane = self._plane
        if t == self._scalar_at or (plane and not all(link.idle for link in plane)):
            return 0
        stop = t + budget
        faulted = self._faults.plan is not None
        if faulted:
            hot = self._faults.next_hot(t)
            if hot is not None:
                stop = min(stop, hot)
        if stop <= t:
            return 0
        policy = self.policy
        if faulted:  # what a scalar step sets for a slot no fault acts on
            for session in policy.sessions:
                session.channels.capacity_factor = 1.0
        lanes = [_Lane(session, row, t) for session, row in zip(policy.sessions, self._by_session)]
        blocks: list[tuple] = []
        if policy.local_events:
            stop = self._session_major(t, stop, plane, faulted, lanes, blocks)
        else:
            stop = self._joint_only(t, stop, plane, faulted, lanes, blocks)
        policy.book(t, stop)
        n = stop - t
        if n:
            self._commit(blocks, lanes, t, stop)
        return n

    def _session_major(self, t, stop, plane, faulted, lanes, blocks) -> int:
        """The slice for a policy with local events: each lane replays to
        its own next event, and the events run in slot order.  Returns
        where the slice stops."""
        policy = self.policy
        fifo = policy.fifo
        rows = self._rows
        edge = t  # no session replays past this slot
        while True:
            at = min(lane.pos for lane in lanes)
            if at >= edge:  # every session is at the edge: move it on
                if edge >= stop or not self._open(edge, plane, faulted, blocks):
                    return edge
                joint = policy.next_joint_decision
                edge = min(stop, edge + _LANE_WINDOW, stop if joint is None else joint)
                for i, lane in enumerate(lanes):
                    end, limit, phase = policy.watch(i, lane.pos)
                    lane.snapshot()
                    lane.advance(edge if end is None else min(end, edge), fifo, limit, phase)
                continue
            firing = [i for i, lane in enumerate(lanes) if lane.pos == at]
            row = rows[at].tolist()
            bits = [row[i] for i in firing]
            if plane or policy.stage_ends(at, firing, bits):
                # The slot takes the scalar step; sessions that replayed
                # past it go back to their last resume and up to it.
                for lane in lanes:
                    if lane.pos > at:
                        lane.rollback(at, fifo)
                self._scalar_at = at
                return at
            for i, b in zip(firing, bits):
                lanes[i].pushed = policy.local_event(at, i, b)
            block = self._allocations(at, faulted)
            if block[1:] != blocks[-1][1:]:
                blocks.append(block)
            for i in firing:  # slot `at` is done but for its queue work
                end, limit, phase = policy.watch(i, at + 1)
                lanes[i].snapshot()
                lanes[i].advance(edge if end is None else min(end, edge), fifo, limit, phase)

    def _joint_only(self, t, stop, plane, faulted, lanes, blocks) -> int:
        """The slice for a policy without local events (the epoch
        allocators): every session replays from one joint decision
        straight to the next, with nothing to watch or roll back.
        Returns where the slice stops."""
        policy = self.policy
        fifo = policy.fifo
        edge = t
        while edge < stop:
            if not self._open(edge, plane, faulted, blocks):
                return edge
            joint = policy.next_joint_decision
            edge = stop if joint is None else min(stop, joint)
            for lane in lanes:
                lane.advance(edge, fifo)
        return stop

    def _open(self, edge: int, plane: list[UnreliableLink], faulted: bool, blocks: list) -> bool:
        """Run ``begin_slot`` at ``edge`` (start-up, or a decision reading
        every session) and note the allocations it leaves; False when it
        opened a signaling transaction, which the scalar step takes."""
        self.policy.begin_slot(edge)
        if plane and not all(link.idle for link in plane):
            return False
        block = self._allocations(edge, faulted)
        if not blocks or block[1:] != blocks[-1][1:]:
            blocks.append(block)
        return True

    def _allocations(self, t: int, faulted: bool) -> tuple:
        """``(t, regular, overflow, requested_total)``: the allocations a
        slice records from slot ``t`` on."""
        sessions = self.policy.sessions
        regular = [s.channels.regular_link.bandwidth for s in sessions]
        overflow = [s.channels.overflow_link.bandwidth for s in sessions]
        if not math.isfinite(sum(regular) + sum(overflow)):  # one test for all
            _require_finite((*regular, *overflow), t)
        return t, regular, overflow, self.policy.total_requested if faulted else None

    def _commit(self, blocks: list[tuple], lanes: list["_Lane"], t: int, stop: int) -> None:
        """Hand slots ``t`` to ``stop`` to the recorder, one block per
        stretch of equal allocations."""
        delivered = np.array([lane.delivered for lane in lanes]).T
        backlog = np.array([lane.backlog for lane in lanes]).T
        ends = [block[0] for block in blocks[1:]] + [stop]
        for (start, regular, overflow, requested_total), end in zip(blocks, ends):
            self.recorder.record_keepup_block(
                self._rows[start:end],
                regular,
                overflow,
                requested_total,
                delivered[start - t : end - t],
                backlog[start - t : end - t],
            )

    def finalize(self) -> MultiSessionTrace:
        """Build the trace for the slots simulated so far."""
        policy = self.policy
        # Per-session link changes in change-time order.
        local_changes = []
        for session in policy.sessions:
            channels = session.channels
            for kind, link in (
                ("regular", channels.regular_link), ("overflow", channels.overflow_link)
            ):
                local_changes += [(session.index, kind, change) for change in link.changes]
        local_changes.sort(key=lambda item: item[2].t)
        return self.recorder.finalize(
            local_changes=local_changes,
            extra_changes=list(policy.extra_link.changes) if policy.extra_link is not None else [],
            stage_starts=policy.stage_starts,
            resets=policy.resets,
            horizon=self.horizon,
            delay_histograms=[session.histogram for session in policy.sessions],
        )
