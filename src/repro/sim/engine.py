"""The simulation entry points.

Two entry points, both thin wrappers over the incremental engine in
:mod:`repro.sim.vector`:

* :func:`run_single_session` — engine owns a FIFO queue; each slot it pushes
  arrivals, asks the :class:`~repro.core.allocator.BandwidthPolicy` for a
  bandwidth, serves, and records (:class:`~repro.sim.vector.EngineState`).
* :func:`run_multi_session` — the
  :class:`~repro.core.allocator.MultiSessionPolicy` owns its queues; the
  engine feeds the arrival vector and records what the policy did
  (:class:`~repro.sim.vector.MultiEngineState`).

Both optionally *drain*: after the arrival horizon they keep stepping with
zero arrivals until all queues empty, so every bit's delay is measured.  A
policy that fails to drain (allocates nothing forever) trips a hard cap and
raises :class:`~repro.errors.SimulationError` instead of spinning.

Both accept ``faults=``, a :class:`~repro.faults.plan.FaultPlan`:

* **link degradation** — serving uses the *effective* bandwidth
  ``granted × capacity_factor(t)``; the allocation (and its change
  accounting) is untouched, only the wire underdelivers;
* **ingress drops** — a faulted fraction of each slot's arrivals never
  reaches the queue and is accounted in the trace's ``dropped`` series;
* **requested vs granted** — the traces record the policy's *requested*
  bandwidth (its links' ``requested`` values) alongside the granted
  (applied) one, which differ once
  :func:`~repro.faults.signaling.install_signaling` has put the policy's
  links on the unreliable signaling plane; the engine serves the grant.

Passing ``faults=None`` (or an empty plan) reproduces the fault-free
simulation bit-for-bit.  A single-session run slices straight through
degradation windows and ingress drops; a multi-session run takes the
scalar step at slots where a fault acts.

Both are instrumented for :mod:`repro.obs`: when a telemetry session is
active they time themselves with a profiling hook (slots/sec), and after
the run fill the queue-depth and allocation histograms from the finished
trace (``Histogram.observe_many`` in slot order, so counts and totals
equal per-slot sampling), count slots/changes/stages/drops, and
synthesize stage/phase spans from the policy's event lists.  Telemetry never feeds back into the simulation, so
traces are bit-identical whether it is on or off, and the run itself
takes the same code path either way.

The one reference switch is ``vector=False``: it turns off the
policy-quiet and session-major slices so every slot takes the scalar
step.  Traces are bit-identical either way; the identity tests compare
the two.  When slices apply is stated once, in :mod:`repro.sim.vector`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core.allocator import BandwidthPolicy, MultiSessionPolicy
from repro.errors import SimulationError
from repro.obs.runtime import Telemetry, get_telemetry
from repro.sim.recorder import MultiSessionTrace, SingleSessionTrace
from repro.sim.vector import EngineState, MultiEngineState

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.faults.plan import FaultPlan


def run_single_session(
    policy: BandwidthPolicy,
    arrivals: Sequence[float] | np.ndarray,
    *,
    drain: bool = True,
    max_drain_slots: int | None = None,
    queue_capacity: float | None = None,
    faults: "FaultPlan | None" = None,
    vector: bool = True,
) -> SingleSessionTrace:
    """Simulate one session under ``policy``; return the finalized trace.

    Args:
        policy: the allocation policy.
        arrivals: bits arriving per slot, length ``T`` (the horizon).
        drain: keep simulating with zero arrivals until the queue empties.
        max_drain_slots: hard cap on extra drain slots (default
            ``4 * T + 1000``).
        queue_capacity: finite ingress buffer in bits (None = the paper's
            unbounded-queue model); overflow is tail-dropped and recorded
            in the trace's ``dropped`` series.
        faults: a :class:`~repro.faults.plan.FaultPlan` injecting link
            degradation and ingress drops (None = fault-free).
        vector: run policy-quiet slices when the queue is unbounded and
            the policy supports them
            (:func:`~repro.sim.vector.vector_capable`); ``False`` makes
            every slot a scalar step.  Traces are bit-identical either way.
    """
    state = EngineState(
        policy,
        arrivals,
        drain=drain,
        max_drain_slots=max_drain_slots,
        queue_capacity=queue_capacity,
        faults=faults,
        vector=vector,
    )
    tele = get_telemetry()
    try:
        with tele.profile("engine.run_single_session") as timer:
            state.run()
            timer.slots = state.t
    except SimulationError:
        if tele.enabled:
            _observe_single(tele, state.finalize())
        raise
    trace = state.finalize()
    if tele.enabled:
        _observe_single(tele, trace)
        _emit_run_telemetry(
            tele,
            prefix="engine.single",
            run_name="run_single_session",
            slots=trace.slots,
            horizon=trace.horizon,
            changes=trace.change_count,
            stage_starts=trace.stage_starts,
            resets=trace.resets,
            dropped=trace.total_dropped,
            max_backlog=trace.max_backlog,
        )
    return trace


def run_multi_session(
    policy: MultiSessionPolicy,
    arrivals: Sequence[Sequence[float]] | np.ndarray,
    *,
    drain: bool = True,
    max_drain_slots: int | None = None,
    faults: "FaultPlan | None" = None,
    vector: bool = True,
) -> MultiSessionTrace:
    """Simulate ``k`` sessions under ``policy``; return the finalized trace.

    Args:
        policy: the multi-session policy (owns the queues).
        arrivals: array of shape ``(T, k)`` — bits per slot per session.
        drain: keep stepping with zero arrivals until all queues empty.
        max_drain_slots: hard cap on extra drain slots.
        faults: a :class:`~repro.faults.plan.FaultPlan`; link degradation
            scales each session's effective serving capacity, ingress drops
            remove arriving bits before they reach the policy.  (The
            combined algorithm's global channel is served inside the policy
            and is not degraded.)
        vector: advance in session-major slices (:mod:`repro.sim.vector`) when
            the policy supports them
            (:func:`~repro.sim.vector.multi_vector_capable`); ``False``
            makes every slot a scalar step.  Traces are bit-identical
            either way.
    """
    state = MultiEngineState(
        policy,
        arrivals,
        drain=drain,
        max_drain_slots=max_drain_slots,
        faults=faults,
        vector=vector,
    )
    tele = get_telemetry()
    try:
        with tele.profile("engine.run_multi_session") as timer:
            state.run()
            timer.slots = state.t
    except SimulationError:
        if tele.enabled:
            _observe_multi(tele, state.finalize())
        raise
    trace = state.finalize()
    if tele.enabled:
        _observe_multi(tele, trace)
        _emit_run_telemetry(
            tele,
            prefix="engine.multi",
            run_name="run_multi_session",
            slots=trace.slots,
            horizon=trace.horizon,
            changes=trace.change_count,
            stage_starts=trace.stage_starts,
            resets=trace.resets,
            dropped=float(trace.dropped.sum()),
            max_backlog=float(trace.backlog.sum(axis=1).max(initial=0.0)),
            phase_boundaries=getattr(policy, "phase_boundaries", None),
            k=trace.k,
        )
    return trace


def _observe_single(tele: Telemetry, trace: SingleSessionTrace) -> None:
    """Per-slot queue depth and allocation histograms, in slot order."""
    registry = tele.registry
    registry.histogram("engine.single.queue_depth").observe_many(trace.backlog)
    registry.histogram("engine.single.allocation").observe_many(trace.allocation)


def _session_sum(columns: np.ndarray) -> np.ndarray:
    """Per-slot Python ``sum`` of each row of ``columns``: ``0 + c0 + c1 + ...``
    column by column, the same additions in the same order."""
    total = np.zeros(len(columns))
    for column in columns.T:
        total = total + column
    return total


def _observe_multi(tele: Telemetry, trace: MultiSessionTrace) -> None:
    """Per-slot total queue depth and allocation histograms, in slot order.

    Sums run in session order as Python ``sum`` does, as a per-slot
    sampler over the live queues and links would compute them.
    """
    registry = tele.registry
    registry.histogram("engine.multi.queue_depth").observe_many(_session_sum(trace.backlog))
    registry.histogram("engine.multi.allocation").observe_many(
        _session_sum(trace.regular_allocation)
        + _session_sum(trace.overflow_allocation)
        + trace.extra_allocation
    )


def _emit_run_telemetry(
    tele: Telemetry,
    *,
    prefix: str,
    run_name: str,
    slots: int,
    horizon: int,
    changes: int,
    stage_starts: Sequence[int],
    resets: Sequence[int],
    dropped: float,
    max_backlog: float,
    phase_boundaries: Sequence[int] | None = None,
    k: int | None = None,
) -> None:
    """Post-run summary metrics and stage/phase spans for one finished run.

    Stage and phase spans are synthesized from the policy's (already
    maintained) event lists instead of being tracked slot by slot.
    """
    registry = tele.registry
    registry.counter(prefix + ".runs").inc()
    registry.counter(prefix + ".slots").inc(slots)
    registry.counter(prefix + ".changes").inc(changes)
    registry.counter(prefix + ".stage_starts").inc(len(stage_starts))
    registry.counter(prefix + ".resets").inc(len(resets))
    registry.counter(prefix + ".dropped_bits").inc(dropped)
    registry.gauge(prefix + ".max_backlog").set(max_backlog)

    run_attrs = {"horizon": horizon}
    if k is not None:
        run_attrs["k"] = k
    tele.tracer.span(run_name, 0, slots, kind="run", **run_attrs)
    starts = list(stage_starts)
    for index, start in enumerate(starts):
        end = starts[index + 1] if index + 1 < len(starts) else slots
        tele.tracer.span("stage", start, end, kind="stage", index=index)
    if phase_boundaries:
        boundaries = list(phase_boundaries)
        for index, start in enumerate(boundaries):
            end = (
                boundaries[index + 1]
                if index + 1 < len(boundaries)
                else slots
            )
            tele.tracer.span("phase", start, end, kind="phase", index=index)
