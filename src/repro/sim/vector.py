"""The simulation engine: one incremental loop with event-sliced bulk commits.

A scalar step pays Python interpreter overhead for every slot even though
the paper's policies change their allocation only O(log B_A) times per
stage.  Between allocation events the
slot dynamics are trivial: with an empty queue and per-slot arrivals at or
below the constant allocation, every slot delivers its own arrivals with
delay zero and the queue stays empty.  This module exploits that:

* :class:`EngineState` — the incremental single-session engine.  It owns
  the queue/policy/recorder triple and exposes ``step(n_slots)`` so
  callers can advance a simulation in bounded increments (streaming
  ingestion via :meth:`feed`, bounded-memory aggregation via
  ``collect="summary"``).  :func:`~repro.sim.engine.run_single_session`
  is a thin wrapper over it.  Fault plans fold in per slot: a slot whose
  capacity or ingress factor is not 1 takes the scalar step.
* The **vectorized fast-forward**: while the session is *quiet* (empty
  queue, arrivals ≤ allocation, and the policy guaranteed not to act) the
  engine bulk-commits whole arrival slices with a handful of numpy calls
  instead of per-slot Python steps.  For :class:`SingleSessionOnline` the
  policy-side guarantee comes from :meth:`StageKernel.scan
  <repro.core.stagekernel.StageKernel.scan>`, whose accumulates are
  bitwise-identical to the scalar per-slot updates; the first *event*
  slot (stage end, ladder rung, backlog onset) is always re-run through
  the ordinary scalar step, so traces are bit-identical to an all-scalar
  run (``vector=False``) by construction.
* :func:`run_batched` — advance many independent sessions over one
  validated ``(n, T)`` arrival matrix, each on the vectorized path.
* :class:`MultiEngineState` — the incremental multi-session twin: it
  owns the policy/recorder pair behind ``run_multi_session``, exposes
  the same ``step(n_slots)`` slicing contract, and
  bulk-commits quiet in-phase slices for policies registered via
  :func:`register_multi_vector` (stock: ``PhasedMultiSession`` and the
  epoch-driven arena allocators).  A capable policy declares its own
  event boundaries through the ``quiet_slots_until_boundary`` /
  ``queues_exactly_empty`` hooks, so new policy families opt in by
  registration instead of engine special-casing.

Exactness of the bulk commit (why a quiet slot can be skipped): with the
queue exactly empty and ``EPSILON < a <= c``, ``BitQueue.push`` enqueues
one chunk and ``BitQueue.serve`` takes exactly ``a`` (``take = bits``
branch), pops it, and clears the dust accumulator — delivered bits ``a``,
delay 0, backlog exactly ``0.0``.  With ``a <= EPSILON`` the push is a
no-op and nothing is delivered.  Either way the queue ends the slot in
the same exactly-empty state it began, so the per-slot outputs are pure
functions of the arrival value — which is what the bulk commit writes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core.baselines import StaticAllocator
from repro.core.maxminfair import MaxMinFairAllocator
from repro.core.phased import PhasedMultiSession
from repro.core.prioritytier import PriorityTierAllocator
from repro.core.single_session import SingleSessionOnline
from repro.errors import ConfigError, SimulationError
from repro.network.queue import EPSILON, BitQueue
from repro.obs.runtime import get_telemetry
from repro.sim.recorder import (
    MultiSessionRecorder,
    MultiSessionTrace,
    SingleSessionRecorder,
    SingleSessionTrace,
)

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.faults.plan import FaultPlan

#: Largest quiet slice committed per bulk step.  Bounds transient memory
#: (a few float64 arrays of this length) while amortizing numpy call
#: overhead over thousands of slots.
CHUNK = 16384

#: Bulk takes below this many slots don't pay for the numpy call overhead
#: of the attempt; they trigger the scalar-step cooldown.
_SMALL_TAKE = 64
#: Cooldown bounds (slots stepped scalar before the next bulk attempt).
_PENALTY_MIN = 16
_PENALTY_MAX = 2048


def _as_array(arrivals: Sequence[float] | np.ndarray, ndim: int) -> np.ndarray:
    array = np.asarray(arrivals, dtype=float)
    if array.ndim != ndim:
        raise ConfigError(f"arrivals must be {ndim}-dimensional, got {array.ndim}")
    if array.size:
        # isfinite first: NaN slips through a plain `min() < 0` comparison.
        if not np.isfinite(array).all():
            raise ConfigError("arrivals must be finite (no NaN/inf values)")
        if float(array.min()) < 0:
            raise ConfigError("arrivals must be non-negative")
    return array


def vector_capable(policy) -> bool:
    """True when ``policy`` supports the vectorized quiet fast-forward.

    Exact-type checks on purpose: subclasses may override decision
    machinery in ways the bulk commit cannot see, so they stay on the
    scalar step.
    """
    if type(policy) is SingleSessionOnline:
        return policy.kernel_mode
    return type(policy) is StaticAllocator


#: Multi-session policy types whose quiet slices may be bulk-committed.
#: Populated via :func:`register_multi_vector`; matched by exact type
#: (subclasses may override decision machinery the bulk commit cannot
#: see, so they stay scalar until registered themselves).
_MULTI_VECTOR_TYPES: set[type] = set()


def register_multi_vector(cls: type) -> type:
    """Register a multi-session policy type for the vectorized bulk path.

    The type must honour the quiet-slice contract: between the boundaries
    it reports, ``step`` runs no decision logic and touches no link, so a
    slot with every queue exactly empty and per-session arrivals at or
    below the constant regular allocation delivers its own arrivals at
    delay 0 and leaves the queues exactly empty.  Required hooks:

    * ``quiet_slots_until_boundary(t)`` — slots from ``t`` guaranteed
      free of policy events (0 = step scalar now);
    * ``queues_exactly_empty()`` — every queue holds exactly 0.0 bits.

    Usable as a class decorator; returns ``cls``.
    """
    for hook in ("quiet_slots_until_boundary", "queues_exactly_empty"):
        if not callable(getattr(cls, hook, None)):
            raise ConfigError(
                f"{cls.__name__} cannot register for the vectorized path: "
                f"missing the {hook}() hook"
            )
    _MULTI_VECTOR_TYPES.add(cls)
    return cls


def multi_vector_capable(policy) -> bool:
    """True when the multi-session bulk fast-forward applies to ``policy``.

    Requires a :func:`register_multi_vector`-registered exact type and no
    extra (global-overflow) channel — the bulk commit records the extra
    allocation as 0.
    """
    return type(policy) in _MULTI_VECTOR_TYPES and policy.extra_link is None


register_multi_vector(PhasedMultiSession)
register_multi_vector(MaxMinFairAllocator)
register_multi_vector(PriorityTierAllocator)


def multi_local_changes(policy) -> list[tuple[int, str, object]]:
    """Per-session link changes in change-time order (trace finalize)."""
    local_changes = []
    for session in policy.sessions:
        channels = session.channels
        for change in channels.regular_link.changes:
            local_changes.append((session.index, "regular", change))
        for change in channels.overflow_link.changes:
            local_changes.append((session.index, "overflow", change))
    local_changes.sort(key=lambda item: item[2].t)
    return local_changes


class _FaultSchedule:
    """A fault plan's per-slot factors, precomputed over the horizon.

    The engines read these arrays instead of querying the plan slot by
    slot; values are bit-identical to :meth:`FaultPlan.capacity_factor`
    and :meth:`FaultPlan.ingress_factor`, and are handed out as Python
    floats so no numpy scalar reaches a trace.  Drain slots past the
    horizon query the plan's capacity directly (they carry no arrivals).
    """

    def __init__(self, plan: "FaultPlan | None"):
        self.plan = plan if plan is not None and not plan.is_null else None
        self.capacity = np.empty(0)
        self.ingress = np.empty(0)
        #: Slots where a fault acts (a factor is not 1): scalar steps only.
        self.hot = np.empty(0, dtype=bool)

    def extend(self, horizon: int) -> None:
        """Precompute every slot up to ``horizon``."""
        if self.plan is not None:
            start = len(self.capacity)
            capacity = self.plan.capacity_factors(start, horizon)
            ingress = self.plan.ingress_factors(start, horizon)
            self.capacity = np.concatenate((self.capacity, capacity))
            self.ingress = np.concatenate((self.ingress, ingress))
            self.hot = np.concatenate(
                (self.hot, (capacity != 1.0) | (ingress != 1.0))
            )

    def capacity_at(self, t: int) -> float:
        if t < len(self.capacity):
            return float(self.capacity[t])
        return self.plan.capacity_factor(t)

    def ingress_at(self, t: int) -> float:
        return float(self.ingress[t])


@dataclass
class SingleRunSummary:
    """Bounded-memory aggregate of a single-session run.

    What :class:`EngineState` produces under ``collect="summary"``: O(1)
    state per run instead of per-slot arrays, for streaming workloads
    where the full trace would not fit.
    """

    slots: int = 0
    horizon: int = 0
    total_arrived: float = 0.0
    total_delivered: float = 0.0
    total_dropped: float = 0.0
    max_backlog: float = 0.0
    max_allocation: float = 0.0
    delay_histogram: dict[int, float] = field(default_factory=dict)
    change_count: int = 0
    stage_starts: list[int] = field(default_factory=list)
    resets: list[int] = field(default_factory=list)

    @property
    def max_delay(self) -> int:
        return max(self.delay_histogram.keys(), default=0)


class _SummaryCollector:
    """Recorder-shaped sink that keeps aggregates instead of arrays."""

    def __init__(self) -> None:
        self.slots = 0
        self.total_arrived = 0.0
        self.total_delivered = 0.0
        self.total_dropped = 0.0
        self.max_backlog = 0.0
        self.max_allocation = 0.0
        self.histogram: dict[int, float] = {}

    def record(
        self,
        t,
        arrivals,
        allocation,
        result,
        backlog_after,
        dropped=0.0,
        requested=None,
        effective=None,
    ) -> None:
        self.slots += 1
        self.total_arrived += arrivals
        self.total_delivered += result.bits
        self.total_dropped += dropped
        if backlog_after > self.max_backlog:
            self.max_backlog = backlog_after
        if allocation > self.max_allocation:
            self.max_allocation = allocation
        histogram = self.histogram
        for delivery in result.deliveries:
            histogram[delivery.delay] = (
                histogram.get(delivery.delay, 0.0) + delivery.bits
            )

    def record_keepup_block(self, arrivals, allocation, delivered) -> None:
        n = len(arrivals)
        self.slots += n
        self.total_arrived += float(arrivals.sum())
        delivered_total = float(delivered.sum())
        self.total_delivered += delivered_total
        if allocation > self.max_allocation:
            self.max_allocation = allocation
        if delivered_total > 0.0:
            self.histogram[0] = self.histogram.get(0, 0.0) + delivered_total

    def finalize(self, changes, stage_starts, resets, horizon) -> SingleRunSummary:
        return SingleRunSummary(
            slots=self.slots,
            horizon=horizon,
            total_arrived=self.total_arrived,
            total_delivered=self.total_delivered,
            total_dropped=self.total_dropped,
            max_backlog=self.max_backlog,
            max_allocation=self.max_allocation,
            delay_histogram=self.histogram,
            change_count=len(changes),
            stage_starts=list(stage_starts),
            resets=list(resets),
        )


class EngineState:
    """Incremental single-session engine: advance in ``step(n_slots)`` bites.

    Traces are bit-identical regardless of how the run is sliced into
    ``step`` calls — and, with ``vector`` enabled, regardless of how many
    slots each bulk commit covers.

    Args:
        policy: the allocation policy (drives one
            :class:`~repro.network.queue.BitQueue`).
        arrivals: initial arrival stream (more can be added via
            :meth:`feed` until :meth:`close`).
        drain: keep stepping with zero arrivals after the horizon until
            the queue empties.
        max_drain_slots: hard cap on extra drain slots (default
            ``4 * horizon + 1000``, evaluated at :meth:`close` time).
        queue_capacity: finite ingress buffer (None = unbounded).
        faults: a :class:`~repro.faults.plan.FaultPlan` (None = fault-free).
            A slot whose capacity or ingress factor is not 1 always takes
            the scalar step; fault-free stretches still bulk-commit.
        vector: force (``True``) / suppress (``False``) the vectorized
            quiet fast-forward; ``None`` auto-selects it for
            :func:`vector_capable` policies with an unbounded queue.
        collect: ``"trace"`` records full per-slot arrays;
            ``"summary"`` keeps O(1) aggregates
            (:class:`SingleRunSummary`) for bounded-memory streaming.
        closed: start closed (no further :meth:`feed`); the batch entry
            points use this.
    """

    def __init__(
        self,
        policy,
        arrivals: Sequence[float] | np.ndarray = (),
        *,
        drain: bool = True,
        max_drain_slots: int | None = None,
        queue_capacity: float | None = None,
        faults: "FaultPlan | None" = None,
        vector: bool | None = None,
        collect: str = "trace",
        closed: bool = True,
    ):
        if collect not in ("trace", "summary"):
            raise ConfigError(f"collect must be 'trace' or 'summary', got {collect!r}")
        self.policy = policy
        self.queue = BitQueue("session", capacity=queue_capacity)
        self.recorder = (
            SingleSessionRecorder() if collect == "trace" else _SummaryCollector()
        )
        self.drain = bool(drain)
        self._max_drain_slots = max_drain_slots
        self._array = np.empty(0)
        self._values: list[float] = []
        self._faults = _FaultSchedule(faults)
        self.t = 0
        self.closed = False
        self._append(_as_array(arrivals, ndim=1))

        capable = vector_capable(policy) and queue_capacity is None
        if vector is None:
            self._vector = capable
        elif vector:
            if not capable:
                raise ConfigError(
                    "vector=True requires a vector-capable policy "
                    f"({type(policy).__name__} is not) and an unbounded queue"
                )
            self._vector = True
        else:
            self._vector = False
        self._kernel_policy = self._vector and type(policy) is SingleSessionOnline
        # Adaptive backoff: on streams where quiet prefixes are short
        # (bursty arrivals above the allocation), the bulk attempt itself
        # costs more than the slots it saves.  After a small take the
        # engine steps scalar for `_cooldown` slots before retrying, with
        # the penalty doubling while small takes persist — worst case the
        # vectorized path degrades to scalar speed instead of below it.
        self._cooldown = 0
        self._penalty = _PENALTY_MIN

        if closed:
            self.close()

    # -- streaming surface -------------------------------------------------

    @property
    def horizon(self) -> int:
        """Arrival slots ingested so far."""
        return len(self._values)

    @property
    def done(self) -> bool:
        """True when every ingested slot (and the drain tail) is simulated."""
        if self.t < self.horizon:
            return False
        if not self.closed:
            return False
        return not (self.drain and not self.queue.is_empty)

    def _append(self, chunk: np.ndarray) -> None:
        self._array = (
            np.concatenate((self._array, chunk)) if len(self._array) else chunk
        )
        self._values.extend(chunk.tolist())
        self._faults.extend(len(self._values))

    def feed(self, arrivals: Sequence[float] | np.ndarray) -> None:
        """Append more arrival slots (streaming ingestion)."""
        if self.closed:
            raise ConfigError("cannot feed a closed EngineState")
        chunk = _as_array(arrivals, ndim=1)
        if chunk.size:
            self._append(chunk)
            tele = get_telemetry()
            if tele.enabled:
                tele.registry.counter("engine.stream.fed_slots").inc(chunk.size)
                tele.registry.gauge("engine.stream.horizon").set(
                    float(len(self._values))
                )

    def close(self) -> None:
        """No further arrivals: fixes the horizon and arms the drain cap."""
        if self.closed:
            return
        self.closed = True
        horizon = self.horizon
        cap = (
            self._max_drain_slots
            if self._max_drain_slots is not None
            else 4 * horizon + 1000
        )
        self._cap = cap
        self._limit = horizon + cap

    # -- the run loop ------------------------------------------------------

    def step(self, n_slots: int) -> int:
        """Advance up to ``n_slots`` slots; return how many were simulated.

        Stops early when the ingested arrivals are exhausted (feed more or
        :meth:`close`) or the run is :attr:`done`.  Slicing a run into
        arbitrary ``step`` calls never changes the resulting trace.
        """
        policy = self.policy
        queue = self.queue
        recorder = self.recorder
        values = self._values
        horizon = len(values)
        isfinite = math.isfinite
        decide = policy.decide
        push = queue.push
        serve = queue.serve
        record = recorder.record
        faults = self._faults if self._faults.plan is not None else None
        processed = 0
        t = self.t
        cooldown = self._cooldown
        try:
            while processed < n_slots:
                if t < horizon:
                    if (
                        self._vector
                        and cooldown == 0
                        and queue._size == 0.0
                        and not queue._chunks
                    ):
                        taken = self._bulk(t, min(n_slots - processed, CHUNK))
                        if taken >= _SMALL_TAKE:
                            self._penalty = _PENALTY_MIN
                        else:
                            cooldown = self._penalty
                            self._penalty = min(self._penalty * 2, _PENALTY_MAX)
                        if taken:
                            t += taken
                            processed += taken
                            continue
                    elif cooldown:
                        cooldown -= 1
                    offered = values[t]
                elif not self.closed:
                    break
                elif self.drain and not queue.is_empty:
                    if t >= self._limit:
                        raise SimulationError(
                            f"queue failed to drain within {self._cap} extra "
                            f"slots (backlog {queue.size:.3f})"
                        )
                    offered = 0.0
                else:
                    break
                kept = offered
                fault_dropped = 0.0
                if faults is not None and offered > 0.0:
                    keep = faults.ingress_at(t)
                    if keep < 1.0:
                        fault_dropped = offered * (1.0 - keep)
                        kept = offered - fault_dropped
                backlog = queue.size
                lost = push(t, kept)
                bandwidth = decide(t, kept, backlog)
                if not isfinite(bandwidth):
                    raise SimulationError(
                        f"policy returned non-finite bandwidth {bandwidth!r} at t={t}"
                    )
                if bandwidth < 0:
                    raise SimulationError(
                        f"policy returned negative bandwidth at t={t}"
                    )
                if faults is None:
                    result = serve(t, bandwidth)
                    record(t, offered, bandwidth, result, queue.size, dropped=lost)
                else:
                    # Link degradation: the wire serves less than granted.
                    requested = getattr(policy, "requested_bandwidth", bandwidth)
                    effective = bandwidth * faults.capacity_at(t)
                    result = serve(t, effective)
                    record(
                        t,
                        offered,
                        bandwidth,
                        result,
                        queue.size,
                        dropped=lost + fault_dropped,
                        requested=requested,
                        effective=effective,
                    )
                t += 1
                processed += 1
        finally:
            self.t = t
            self._cooldown = cooldown
            # Live-observatory surface: one guarded emission per step()
            # call (never per slot), so the hot loop stays untouched and
            # a telemetry-off run pays one attribute check.
            tele = get_telemetry()
            if tele.enabled and processed:
                registry = tele.registry
                registry.counter("engine.stream.slots_advanced").inc(processed)
                registry.gauge("engine.stream.t").set(float(t))
                registry.gauge("engine.stream.backlog").set(queue.size)
        return processed

    def _bulk(self, t: int, budget: int) -> int:
        """Bulk-commit the longest quiet prefix from ``t``; return its length.

        Quiet: queue exactly empty, arrivals ≤ the constant allocation, and
        the policy guaranteed not to end a stage, climb a rung, or change
        the link.  Returns 0 when the very next slot needs the scalar step.
        """
        policy = self.policy
        allocation = policy.link.bandwidth
        if self._kernel_policy:
            if not policy._in_stage:
                return 0
        else:  # StaticAllocator: quiet once the link is primed.
            if allocation != policy.bandwidth:
                return 0
        hot = self._faults.hot if self._faults.plan is not None else None
        if self._values[t] > allocation or (hot is not None and hot[t]):
            # Cheap scalar pre-check: the very next slot overloads the
            # link (or is a fault slot), so there is no quiet prefix.
            return 0
        chunk = self._array[t : t + budget]
        loud = chunk > allocation
        if hot is not None:
            loud |= hot[t : t + budget]
        over = np.nonzero(loud)[0]
        limit = int(over[0]) if over.size else len(chunk)
        if limit == 0:
            return 0
        if self._kernel_policy:
            taken = policy._kernel.scan(chunk[:limit])
            if taken == 0:
                return 0
        else:
            taken = limit
        committed = chunk[:taken]
        delivered = np.where(committed > EPSILON, committed, 0.0)
        self.recorder.record_keepup_block(committed, allocation, delivered)
        return taken

    def run(self) -> None:
        """Simulate to completion (closes the state first)."""
        self.close()
        while not self.done:
            self.step(1 << 62)

    def finalize(self) -> SingleSessionTrace | SingleRunSummary:
        """Build the trace (or summary) for the slots simulated so far."""
        policy = self.policy
        return self.recorder.finalize(
            changes=policy.changes,
            stage_starts=policy.stage_starts,
            resets=policy.resets,
            horizon=self.horizon,
        )


class MultiEngineState:
    """Incremental multi-session engine: advance in ``step(n_slots)`` bites.

    The multi-session twin of :class:`EngineState` and the implementation
    behind ``run_multi_session``: traces are bit-identical regardless of
    how the run is sliced into ``step`` calls — and, with ``vector``
    enabled, regardless of how many slots each bulk commit covers.

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
        vector: force (``True``) / suppress (``False``) the quiet bulk
            fast-forward; ``None`` auto-selects it for
            :func:`multi_vector_capable` policies.
    """

    def __init__(
        self,
        policy,
        arrivals: Sequence[Sequence[float]] | np.ndarray,
        *,
        drain: bool = True,
        max_drain_slots: int | None = None,
        faults: "FaultPlan | None" = None,
        vector: bool | None = None,
    ):
        array = _as_array(arrivals, ndim=2)
        horizon, k = array.shape
        if k != policy.k:
            raise ConfigError(f"arrivals have k={k} but policy has k={policy.k}")
        self.policy = policy
        self.k = k
        self.horizon = horizon
        self.recorder = MultiSessionRecorder(k)
        self.drain = bool(drain)
        self._rows: list[list[float]] = array.tolist()
        self._zero = [0.0] * k
        cap = max_drain_slots if max_drain_slots is not None else 4 * horizon + 1000
        self._cap = cap
        self._limit = horizon + cap
        self._faults = _FaultSchedule(faults)
        self._faults.extend(horizon)
        self._hot = None if self._faults.plan is None else self._faults.hot.tolist()
        self.t = 0

        capable = multi_vector_capable(policy)
        if vector is None:
            self._vector = capable
        elif vector:
            if not capable:
                raise ConfigError(
                    "vector=True requires a vector-capable multi-session "
                    "policy (a register_multi_vector-ed type with no extra "
                    f"channel), got {type(policy).__name__}"
                )
            self._vector = True
        else:
            self._vector = False

    @property
    def done(self) -> bool:
        """True when every slot (and the drain tail) is simulated."""
        if self.t < self.horizon:
            return False
        return not (self.drain and self.policy.total_backlog > 0)

    def step(self, n_slots: int) -> int:
        """Advance up to ``n_slots`` slots; return how many were simulated.

        Slicing a run into arbitrary ``step`` calls never changes the
        resulting trace.
        """
        policy = self.policy
        recorder = self.recorder
        rows = self._rows
        horizon = self.horizon
        k = self.k
        sessions = policy.sessions
        policy_step = policy.step
        record = recorder.record
        isfinite = math.isfinite
        faults = self._faults if self._faults.plan is not None else None
        processed = 0
        t = self.t
        try:
            while processed < n_slots:
                if t < horizon:
                    if self._vector:
                        taken = self._bulk(t, n_slots - processed)
                        if taken:
                            t += taken
                            processed += taken
                            continue
                    offered = rows[t]
                elif self.drain and policy.total_backlog > 0:
                    if t >= self._limit:
                        raise SimulationError(
                            f"queues failed to drain within {self._cap} extra "
                            f"slots (backlog {policy.total_backlog:.3f})"
                        )
                    offered = self._zero
                else:
                    break
                kept = offered
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
                results = policy_step(t, kept)
                if len(results) != k:
                    raise SimulationError(
                        f"policy returned {len(results)} results for k={k} at t={t}"
                    )
                regular = [s.channels.regular_link.bandwidth for s in sessions]
                overflow = [s.channels.overflow_link.bandwidth for s in sessions]
                extra = (
                    policy.extra_link.bandwidth
                    if policy.extra_link is not None
                    else 0.0
                )
                for value in (*regular, *overflow, extra):
                    if not isfinite(value):
                        raise SimulationError(
                            f"policy produced non-finite bandwidth {value!r} at t={t}"
                        )
                backlogs = [s.backlog for s in sessions]
                record(
                    t,
                    offered,
                    regular,
                    overflow,
                    results,
                    backlogs,
                    extra,
                    requested_total=(
                        policy.total_requested if faults is not None else None
                    ),
                    dropped=fault_dropped,
                )
                t += 1
                processed += 1
        finally:
            self.t = t
            if faults is not None:
                # A mid-run SimulationError must not leak degraded capacity
                # into the sessions' next run.
                for session in sessions:
                    session.channels.capacity_factor = 1.0
            tele = get_telemetry()
            if tele.enabled and processed:
                registry = tele.registry
                registry.counter("engine.stream.multi.slots_advanced").inc(
                    processed
                )
                registry.gauge("engine.stream.multi.t").set(float(t))
                registry.gauge("engine.stream.multi.backlog").set(
                    policy.total_backlog
                )
        return processed

    def _bulk(self, t: int, budget: int) -> int:
        """Bulk-commit quiet slots from ``t`` (at most ``budget``).

        Quiet requires: the policy has started, no event boundary falls
        inside the slice, every queue is exactly empty, and each session's
        arrivals stay at or below its (constant within the slice) regular
        allocation — then each slot delivers its own arrivals at delay 0,
        leaves the queues exactly empty, and touches no link, so per-slot
        outputs are pure functions of the arrival rows.  Returns 0 when
        the next slot needs the scalar step (boundary due, backlog, or
        overload).
        """
        policy = self.policy
        quiet = policy.quiet_slots_until_boundary(t)
        if quiet == 0 or not policy.queues_exactly_empty():
            return 0
        rows = self._rows
        hot = self._hot
        sessions = policy.sessions
        stop = min(t + quiet, self.horizon, t + budget)
        regular = [s.channels.regular_link.bandwidth for s in sessions]
        overflow = [s.channels.overflow_link.bandwidth for s in sessions]
        k = len(regular)
        end = t
        while end < stop:
            if hot is not None and hot[end]:
                break
            row = rows[end]
            ok = True
            for i in range(k):
                if row[i] > regular[i]:
                    ok = False
                    break
            if not ok:
                break
            end += 1
        if end == t:
            return 0
        block = rows[t:end]
        if hot is None:
            # Matches the recorder's own fold for requested_total=None rows.
            requested_total = sum(regular) + sum(overflow) + 0.0
        else:
            # What a faulted scalar step records (constant: no link moves).
            requested_total = policy.total_requested
        self.recorder.record_keepup_block(block, regular, overflow, 0.0, requested_total)
        for i, session in enumerate(sessions):
            arrived = session.bits_arrived
            delivered = session.bits_delivered
            for row in block:
                bits = row[i]
                if bits > 0:
                    arrived += bits
                    if bits > EPSILON:
                        delivered += bits
            session.bits_arrived = arrived
            session.bits_delivered = delivered
        return end - t

    def run(self) -> None:
        """Simulate to completion."""
        while not self.done:
            self.step(1 << 62)

    def finalize(self) -> MultiSessionTrace:
        """Build the trace for the slots simulated so far."""
        policy = self.policy
        extra_changes = (
            list(policy.extra_link.changes)
            if policy.extra_link is not None
            else []
        )
        return self.recorder.finalize(
            local_changes=multi_local_changes(policy),
            extra_changes=extra_changes,
            stage_starts=policy.stage_starts,
            resets=policy.resets,
            horizon=self.horizon,
        )


def run_batched(
    policy_factory,
    arrivals: Sequence[Sequence[float]] | np.ndarray,
    *,
    drain: bool = True,
    max_drain_slots: int | None = None,
    collect: str = "trace",
) -> list[SingleSessionTrace | SingleRunSummary]:
    """Advance many independent sessions over one stacked arrival matrix.

    Args:
        policy_factory: zero-argument callable producing a fresh policy per
            session (policies are stateful, one per row).
        arrivals: array of shape ``(n_sessions, T)`` — validated and
            converted once for the whole batch.
        drain, max_drain_slots, collect: as :class:`EngineState`.

    Each row runs on the vectorized path when the policy is
    :func:`vector_capable` (scalar otherwise).  Rows are independent
    simulations: stage-relative prefix sums are per-session state, so a
    cross-session 2-D kernel cannot preserve bit-identity — the win here
    is the shared validation/conversion pass plus the per-row quiet
    fast-forward, which already removes the per-slot interpreter cost.
    """
    matrix = _as_array(arrivals, ndim=2)
    out = []
    for row in matrix:
        state = EngineState(
            policy_factory(),
            row,
            drain=drain,
            max_drain_slots=max_drain_slots,
            collect=collect,
        )
        state.run()
        out.append(state.finalize())
    return out
