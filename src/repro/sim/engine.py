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
synthesize stage/phase spans from the policy's event lists, in one
sequence for both entry points.  Telemetry never feeds back into the
simulation, so traces are bit-identical whether it is on or off, and the
run itself takes the same code path either way.

Which runs take slices is the exact-type rule stated once in
:mod:`repro.sim.vector`: an exact subclass of a policy takes the scalar
step, so an all-scalar reference run is a run of a trivial subclass.
Traces are bit-identical either way; the identity tests compare the two.
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
    """
    state = EngineState(
        policy,
        arrivals,
        drain=drain,
        max_drain_slots=max_drain_slots,
        queue_capacity=queue_capacity,
        faults=faults,
    )
    return _run(state, "run_single_session", "engine.single", _single_series)


def run_multi_session(
    policy: MultiSessionPolicy,
    arrivals: Sequence[Sequence[float]] | np.ndarray,
    *,
    drain: bool = True,
    max_drain_slots: int | None = None,
    faults: "FaultPlan | None" = None,
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
    """
    state = MultiEngineState(
        policy, arrivals, drain=drain, max_drain_slots=max_drain_slots, faults=faults
    )
    return _run(state, "run_multi_session", "engine.multi", _multi_series)


def _run(state, run_name: str, prefix: str, series):
    """Run ``state`` to completion under the telemetry profile; observe the
    trace (also the partial one a :class:`SimulationError` leaves) and emit
    the run's summary.  ``series(trace)`` gives the per-slot queue depth
    and allocation, the peak backlog and the run span's extra attributes.
    """
    tele = get_telemetry()
    try:
        with tele.profile("engine." + run_name) as timer:
            state.run()
            timer.slots = state.t
    except SimulationError:
        if tele.enabled:
            _observe(tele, prefix, *series(state.finalize())[:2])
        raise
    trace = state.finalize()
    if tele.enabled:
        depth, allocation, peak, attrs = series(trace)
        _observe(tele, prefix, depth, allocation)
        registry = tele.registry
        registry.counter(prefix + ".runs").inc()
        registry.counter(prefix + ".slots").inc(trace.slots)
        registry.counter(prefix + ".changes").inc(trace.change_count)
        registry.counter(prefix + ".stage_starts").inc(len(trace.stage_starts))
        registry.counter(prefix + ".resets").inc(len(trace.resets))
        registry.counter(prefix + ".dropped_bits").inc(float(trace.dropped.sum()))
        registry.gauge(prefix + ".max_backlog").set(peak)
        # Stage and phase spans come from the policy's (already
        # maintained) event lists, not from slot-by-slot tracking.
        tele.tracer.span(run_name, 0, trace.slots, kind="run", horizon=trace.horizon, **attrs)
        _spans(tele, "stage", trace.stage_starts, trace.slots)
        _spans(tele, "phase", getattr(state.policy, "phase_boundaries", ()), trace.slots)
    return trace


def _observe(tele: Telemetry, prefix: str, depth: np.ndarray, allocation: np.ndarray) -> None:
    """Per-slot queue depth and allocation histograms, in slot order."""
    registry = tele.registry
    registry.histogram(prefix + ".queue_depth").observe_many(depth)
    registry.histogram(prefix + ".allocation").observe_many(allocation)


def _spans(tele: Telemetry, kind: str, starts, slots: int) -> None:
    """One ``kind`` span from each start to the next (the last to ``slots``)."""
    starts = list(starts)
    for index, start in enumerate(starts):
        end = starts[index + 1] if index + 1 < len(starts) else slots
        tele.tracer.span(kind, start, end, kind=kind, index=index)


def _single_series(trace: SingleSessionTrace) -> tuple:
    return trace.backlog, trace.allocation, trace.max_backlog, {}


def _session_sum(columns: np.ndarray) -> np.ndarray:
    """Per-slot Python ``sum`` of each row of ``columns``: ``0 + c0 + c1 + ...``
    column by column, the same additions in the same order."""
    total = np.zeros(len(columns))
    for column in columns.T:
        total = total + column
    return total


def _multi_series(trace: MultiSessionTrace) -> tuple:
    """Totals over the sessions.  The per-slot sums run in session order as
    Python ``sum`` does, as a per-slot sampler over the live queues and
    links would compute them."""
    allocation = (
        _session_sum(trace.regular_allocation)
        + _session_sum(trace.overflow_allocation)
        + trace.extra_allocation
    )
    peak = float(trace.backlog.sum(axis=1).max(initial=0.0))
    return _session_sum(trace.backlog), allocation, peak, {"k": trace.k}
