"""Theorem-bound certificate checking over recorded traces.

This module is the library's *second implementation*: it replays a
finalized trace (:class:`~repro.sim.recorder.SingleSessionTrace` /
:class:`~repro.sim.recorder.MultiSessionTrace`, or anything with the same
attributes — e.g. loaded from ``.npz`` via :mod:`repro.sim.serialize`)
and independently re-derives the queue, delay, utilization-window,
change-count, and overflow-channel series from the raw per-slot arrays,
then certifies each of the paper's theorem bounds:

=============  ========================================================
check          bound
=============  ========================================================
conservation   ``q(t) = q(t-1) + kept(t) - delivered(t)`` matches the
               recorded backlog; nothing is served beyond the queue or
               the effective bandwidth; every per-slot value is finite
               (accounting honesty, not a theorem)
claim2         Claim 2: ``B_on >= q / D_A`` after arrivals, before serve
lemma3         Lemma 3 / 11 / 15: every bit delivered within ``D_A``
delay-replay   one FIFO replay (:func:`replay_fifo_service`) agrees
               with the recorder.  Single session: arrivals served at
               the effective bandwidth reproduce the recorded deliveries
               and delay histogram.  Multi-session: arrivals served at
               the recorded deliveries hold every delivered bit, and each
               session's histogram holds those bits with a max delay no
               smaller than the replay's
corollary4     Corollary 4: ``q_online <= q_offline + B_O·D_O`` against
               a certificate profile
lemma5         Lemma 5: some window of ``<= W + 5·D_O`` slots ending at
               every slot achieves utilization ``>= U_O/3``
claim9         Claim 9: any interval of length Δ carries at most
               ``(Δ + D_O)·B_O`` bits (workload-certificate validity)
lemma10-16     Lemma 10 / 16: overflow channel ``<= 2·B_O`` / ``3·B_O``
regular-cap    regular channel ``<= 2·B_O + B_O/k``
max-bandwidth  total allocation ``<= B_A``
changes        the sparse change log is consistent with the dense
               allocation series (count and values)
=============  ========================================================

**Independence.**  The checker imports from ``repro`` only
:mod:`repro.errors`, :mod:`repro.params` and :mod:`repro.verify.report`
— every series above is re-derived here from the trace's numpy arrays
with standalone implementations (its own FIFO replay, its own Lindley
recursion, its own window scans).  A bug shared
between the engine and its checker would certify garbage; two
implementations must now agree slot by slot.

Conditional vs unconditional bounds: the overflow/regular/total bandwidth
caps and change-log consistency are invariants of the online algorithms
and are always checked.  Claim 2 and the delay, utilization, Corollary 4,
and Claim 9 bounds are checked only when
:attr:`TheoremBounds.assume_feasible` is set (the workload carries a
feasibility certificate) and reported as skipped otherwise.

**Narrow helpers.**  Experiments that only need one margin call the
series helpers the checks themselves use — :func:`claim2_margins`,
:func:`claim9_series`, :func:`session_sums` with :func:`peak`,
:func:`replay_fifo_service` for late deliveries and the max delay,
:func:`corollary4_slack`, and :func:`min_existential_window_utilization`
for Lemma 5 — instead of a full :func:`certify`.  These are the
library's only implementations of those measures.  Each failing check
lists its first violating slots as counterexamples, so a certificate
pinpoints the slot where an invariant first broke.
"""

from __future__ import annotations

import math
import sys
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.params import (
    BANDWIDTH_SLACK_COMBINED_CONTINUOUS,
    BANDWIDTH_SLACK_COMBINED_PHASED,
    BANDWIDTH_SLACK_CONTINUOUS,
    BANDWIDTH_SLACK_PHASED,
    DELAY_SLACK,
    EXTRA_WINDOW_SLACK,
    UTILIZATION_SLACK,
    OfflineConstraints,
)
from repro.verify.report import CertificateReport, Counterexample

#: Relative tolerance of every bound check.
_EPS = 1e-6

#: Bits below this are floating-point dust (the queue's convention).
_DUST = 1e-9

#: Allocation changes smaller than this are no-ops (the link's convention).
_CHANGE_EPS = 1e-9

#: Cap on counterexamples collected per check.
_MAX_EXAMPLES = 25

#: Slots converted to Python floats at a time by the FIFO replay, and the
#: longest span of the conservation accumulate.
_REPLAY_BLOCK = 4096

#: Python's float ``sum`` is Neumaier-compensated from 3.12 on.
_COMPENSATED_SUM = sys.version_info >= (3, 12)


@dataclass(frozen=True)
class TheoremBounds:
    """Everything the checker needs to know about one trace's guarantees.

    Built via the factory functions below, which encode the paper's slack
    table (:mod:`repro.params`) so callers state only the offline side.
    """

    variant: str
    offline_bandwidth: float
    offline_delay: int
    online_delay: int
    max_bandwidth: float | None = None
    utilization: float | None = None
    window: int | None = None
    online_utilization: float | None = None
    online_window: int | None = None
    overflow_factor: float | None = None
    regular_bound: float | None = None
    k: int | None = None
    #: Workload certified feasible => the conditional theorem bounds apply.
    assume_feasible: bool = True

    def __post_init__(self) -> None:
        # Every comparison with NaN is false, so NaN fails this test too.
        if not 0 < self.offline_bandwidth < math.inf:
            raise ConfigError(
                f"offline_bandwidth must be finite and > 0, "
                f"got {self.offline_bandwidth!r}"
            )
        if self.offline_delay < 1 or self.online_delay < 1:
            raise ConfigError("delays must be >= 1 slot")

    def as_dict(self) -> dict:
        return {
            "variant": self.variant,
            "offline_bandwidth": self.offline_bandwidth,
            "offline_delay": self.offline_delay,
            "online_delay": self.online_delay,
            "max_bandwidth": self.max_bandwidth,
            "utilization": self.utilization,
            "window": self.window,
            "online_utilization": self.online_utilization,
            "online_window": self.online_window,
            "overflow_factor": self.overflow_factor,
            "regular_bound": self.regular_bound,
            "k": self.k,
            "assume_feasible": self.assume_feasible,
        }


def single_session_bounds(
    offline: OfflineConstraints, feasible: bool = True
) -> TheoremBounds:
    """Theorem 6 / 7 bounds for the Figure 3 family (``B_A = B_O``)."""
    online_utilization = None
    online_window = None
    if offline.utilization is not None and offline.window is not None:
        online_utilization = offline.utilization / UTILIZATION_SLACK
        online_window = offline.window + EXTRA_WINDOW_SLACK * offline.delay
    return TheoremBounds(
        variant="single",
        offline_bandwidth=offline.bandwidth,
        offline_delay=offline.delay,
        online_delay=DELAY_SLACK * offline.delay,
        max_bandwidth=offline.bandwidth,
        utilization=offline.utilization,
        window=offline.window,
        online_utilization=online_utilization,
        online_window=online_window,
        assume_feasible=feasible,
    )


def raw_single_bounds(max_bandwidth: float, offline_delay: int) -> TheoremBounds:
    """Unconditional-checks-only bounds for uncertified workloads."""
    return TheoremBounds(
        variant="single",
        offline_bandwidth=max_bandwidth,
        offline_delay=offline_delay,
        online_delay=DELAY_SLACK * offline_delay,
        max_bandwidth=max_bandwidth,
        assume_feasible=False,
    )


def phased_bounds(
    offline_bandwidth: float, offline_delay: int, k: int, feasible: bool = True
) -> TheoremBounds:
    """Theorem 14 bounds: ``B_A = 4·B_O``, overflow ``<= 2·B_O`` (Lemma 10)."""
    return TheoremBounds(
        variant="phased",
        offline_bandwidth=offline_bandwidth,
        offline_delay=offline_delay,
        online_delay=DELAY_SLACK * offline_delay,
        max_bandwidth=BANDWIDTH_SLACK_PHASED * offline_bandwidth,
        overflow_factor=2.0,
        regular_bound=2.0 * offline_bandwidth + offline_bandwidth / k,
        k=k,
        assume_feasible=feasible,
    )


def continuous_bounds(
    offline_bandwidth: float, offline_delay: int, k: int, feasible: bool = True
) -> TheoremBounds:
    """Theorem 17 bounds: ``B_A = 5·B_O``, overflow ``<= 3·B_O`` (Lemma 16)."""
    return TheoremBounds(
        variant="continuous",
        offline_bandwidth=offline_bandwidth,
        offline_delay=offline_delay,
        online_delay=DELAY_SLACK * offline_delay,
        max_bandwidth=BANDWIDTH_SLACK_CONTINUOUS * offline_bandwidth,
        overflow_factor=3.0,
        regular_bound=2.0 * offline_bandwidth + offline_bandwidth / k,
        k=k,
        assume_feasible=feasible,
    )


def combined_bounds(
    offline: OfflineConstraints,
    k: int,
    inner: str = "phased",
    feasible: bool = True,
) -> TheoremBounds:
    """Section 4 bounds: ``B_A = 7·B_O`` (phased) / ``8·B_O`` (continuous).

    The inner overflow/regular split is an implementation detail of the
    combined construction, so only the total-bandwidth, delay, and
    utilization bounds are enforced.
    """
    if inner == "phased":
        slack = BANDWIDTH_SLACK_COMBINED_PHASED
    elif inner == "continuous":
        slack = BANDWIDTH_SLACK_COMBINED_CONTINUOUS
    else:
        raise ConfigError(f"inner must be 'phased' or 'continuous', got {inner!r}")
    return TheoremBounds(
        variant="combined",
        offline_bandwidth=offline.bandwidth,
        offline_delay=offline.delay,
        online_delay=DELAY_SLACK * offline.delay,
        max_bandwidth=slack * offline.bandwidth,
        utilization=offline.utilization,
        window=offline.window,
        k=k,
        assume_feasible=feasible,
    )


# ---------------------------------------------------------------------------
# Independent re-derivations


def _paired_series(first, second, names: str) -> tuple[np.ndarray, np.ndarray]:
    """Two per-slot series as float arrays, checked 1-D and of equal length."""
    first, second = np.asarray(first, dtype=float), np.asarray(second, dtype=float)
    if first.ndim != 1 or first.shape != second.shape:
        raise ConfigError(
            f"{names} must be 1-D of equal length, got {first.shape}, {second.shape}"
        )
    return first, second


@dataclass(frozen=True)
class FifoService:
    """What a FIFO queue served, replayed from its inputs and capacities."""

    #: Bits delivered per slot.
    delivered: np.ndarray
    #: Bits-weighted delay histogram (every delivery's delay is a key).
    histogram: dict[int, float]
    #: ``(slot, delay)`` of every delivery later than the replay's bound,
    #: one per chunk served late, in service order.
    late: list[tuple[int, int]]

    @property
    def max_delay(self) -> int:
        return max(self.histogram, default=0)


def replay_fifo_service(
    kept: np.ndarray, capacity: np.ndarray, bound: int | None = None
) -> FifoService:
    """Replay a FIFO bit queue fed ``kept[t]`` and served ``capacity[t]``.

    Mirrors the fluid queue's conventions exactly: arrivals at or below
    dust are not enqueued, service continues while any capacity remains,
    a chunk is popped once served to within dust, and dust left in an
    otherwise drained queue is cleared.  Given the bits a run enqueued
    and the effective bandwidth it served with, the replay therefore
    reproduces every delivery — and so every late one, for ``bound``.
    A slot that finds the queue empty and serves its own arrivals keeps
    up: one take at delay 0, ``served = 0.0 + bits``, the chunk loop's floats.
    """
    kept, capacity = _paired_series(kept, capacity, "kept and capacity")
    chunks: deque[list] = deque()  # [arrival_slot, bits]
    push, pop = chunks.append, chunks.popleft
    size = 0.0
    histogram: dict[int, float] = {}
    get = histogram.get
    late: list[tuple[int, int]] = []
    limit = math.inf if bound is None else bound
    delivered = np.empty(len(kept))
    # Python floats in bounded blocks: fast scalar arithmetic without a
    # whole-trace list in memory.
    for start in range(0, len(kept), _REPLAY_BLOCK):
        stop = start + _REPLAY_BLOCK
        served_block = []
        record = served_block.append
        pairs = zip(kept[start:stop].tolist(), capacity[start:stop].tolist())
        for t, (bits_in, remaining) in enumerate(pairs, start):
            if not chunks and _DUST < bits_in <= remaining:  # keeps up
                histogram[0] = get(0, 0.0) + bits_in
                if limit < 0:
                    late.append((t, 0))
                record(bits_in)
                continue
            if bits_in > _DUST:
                push([t, bits_in])
                size += bits_in
            served = 0.0
            while remaining > 0.0 and chunks:
                arrival, bits = chunks[0]
                take = bits if bits <= remaining else remaining
                delay = t - arrival
                histogram[delay] = get(delay, 0.0) + take
                if delay > limit:
                    late.append((t, delay))
                served += take
                remaining -= take
                size -= take
                if take >= bits - _DUST:
                    pop()
                else:
                    chunks[0][1] = bits - take
            if not chunks or size < _DUST:
                size = 0.0
                chunks.clear()
            record(served)
        delivered[start:stop] = served_block
    return FifoService(delivered, histogram, late)


def lindley_backlog(arrivals: np.ndarray, capacities: np.ndarray) -> np.ndarray:
    """End-of-slot queue of a work-conserving server: the Lindley recursion."""
    arrivals, capacities = _paired_series(
        arrivals, capacities, "arrivals and capacities"
    )
    backlog = []
    record = backlog.append
    q = 0.0
    for a, c in zip(arrivals.tolist(), capacities.tolist()):
        v = q + a - c
        q = v if v > 0.0 else 0.0  # max(0.0, v) for every float, NaN included
        record(q)
    return np.asarray(backlog, dtype=float)


def corollary4_slack(
    backlog: np.ndarray,
    kept: np.ndarray,
    profile: np.ndarray,
    offline_bandwidth: float,
    offline_delay: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Corollary 4 slack ``(q_offline + B_O·D_O) - q_online`` per slot.

    ``q_offline`` is the :func:`lindley_backlog` of the ``kept`` arrivals
    served at the certificate ``profile``, over the profile's horizon cut
    to the trace's.  Returns the slack and ``q_offline``; a non-negative
    slack means the corollary held at that slot.
    """
    horizon = min(len(profile), len(kept))
    offline_backlog = lindley_backlog(kept[:horizon], profile[:horizon])
    budget = offline_bandwidth * offline_delay
    online = np.asarray(backlog, dtype=float)[:horizon]
    return offline_backlog + budget - online, offline_backlog


def best_window_utilizations(
    arrivals: np.ndarray, allocation: np.ndarray, max_window: int
) -> np.ndarray:
    """Per-slot best utilization over trailing windows of ``<= max_window``.

    ``out[t] = max over 1 <= w <= min(t+1, max_window) of
    IN(t-w, t] / B(t-w, t]`` (windows with no allocation are ignored;
    slots where every window has zero allocation get ``-inf``).

    One numpy pass per window width ``w``: the prefix differences for
    every ``t`` at once, their quotient where ``B > _DUST``, folded into
    the running ``best`` with ``np.maximum``.  Each quotient is the
    subtraction and division a per-slot scan makes, and max reductions
    are exact, so the values equal that scan's at ``O(W)`` numpy calls.
    """
    if max_window < 1:
        raise ConfigError(f"max_window must be >= 1, got {max_window!r}")
    arrivals = np.asarray(arrivals, dtype=float)
    allocation = np.asarray(allocation, dtype=float)
    horizon = len(arrivals)
    cum_in = np.concatenate([[0.0], np.cumsum(arrivals)])
    cum_alloc = np.concatenate([[0.0], np.cumsum(allocation)])
    best = np.full(horizon, -np.inf)
    for width in range(1, min(max_window, horizon) + 1):
        with np.errstate(divide="ignore", invalid="ignore"):
            in_sum = cum_in[width:] - cum_in[:-width]
            alloc_sum = cum_alloc[width:] - cum_alloc[:-width]
            ratio = np.where(alloc_sum > _DUST, in_sum / alloc_sum, -np.inf)
        np.maximum(best[width - 1 :], ratio, out=best[width - 1 :])
    return best


def _worst_best(best: np.ndarray) -> float:
    """Smallest finite per-slot best utilization (``inf`` if none)."""
    usable = best[np.isfinite(best)]
    return float(usable.min()) if usable.size else math.inf


def min_existential_window_utilization(
    arrivals: np.ndarray, allocation: np.ndarray, max_window: int
) -> float:
    """Lemma 5, measured: the worst over slots of the best trailing window.

    The minimum of the finite :func:`best_window_utilizations` (``inf``
    when no window has positive allocation).  The algorithm satisfies
    Lemma 5 iff this is at least ``U_O / 3`` with ``max_window = W +
    5·D_O``.

    Raises:
        ConfigError: on ``max_window < 1``, non-1-D or unequal-length
            inputs, or non-finite values (``np.maximum`` propagates NaN,
            which would otherwise poison a slot's best value).
    """
    if max_window < 1:
        raise ConfigError(f"max_window must be >= 1, got {max_window!r}")
    arrivals, allocation = _paired_series(
        arrivals, allocation, "arrivals and allocation"
    )
    if not (
        np.isfinite(np.cumsum(arrivals)).all()
        and np.isfinite(np.cumsum(allocation)).all()
    ):
        raise ConfigError("arrivals and allocation must be finite")
    return _worst_best(best_window_utilizations(arrivals, allocation, max_window))


def claim9_series(
    arrivals: np.ndarray, offline_bandwidth: float, offline_delay: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-slot excess over the Claim 9 envelope, and cumulative arrivals.

    Claim 9 bounds the bits of any interval of length Δ by
    ``(Δ + D_O)·B_O``; with ``G(t) = C(t) - B_O·t`` this is
    ``G(t) - min_{u<t} G(u) <= D_O·B_O``, one running minimum.  The
    excess at slot ``t`` is the left side minus ``D_O·B_O``.  With
    ``B_O = ρ`` and ``D_O = b / ρ`` it is the ``(ρ, b)`` token-bucket
    envelope (footnote 1).  ``arrivals`` must be 1-D, finite and
    non-negative.
    """
    # The rules of ``repro.core.envelope.arrival_array``, restated: the
    # checker imports nothing from the code it checks.
    arrivals = np.asarray(arrivals, dtype=float)
    if arrivals.ndim != 1:
        raise ConfigError(f"arrivals must be 1-dimensional, got {arrivals.ndim}")
    if not np.isfinite(arrivals).all():
        raise ConfigError("arrivals must be finite (no NaN/inf values)")
    if arrivals.size and arrivals.min() < 0:
        raise ConfigError("arrivals must be non-negative")
    cumulative = np.cumsum(arrivals)
    g = cumulative - offline_bandwidth * np.arange(1, len(arrivals) + 1)
    previous_min = np.minimum.accumulate(np.concatenate(([0.0], g[:-1])))
    excess = g - previous_min - offline_delay * offline_bandwidth
    return excess, cumulative


def claim9_violations(excess: np.ndarray, cumulative: np.ndarray) -> np.ndarray:
    """Slots whose Claim 9 excess is beyond float noise."""
    return np.flatnonzero(excess > _EPS * np.maximum(1.0, cumulative))


def claim2_margins(trace, online_delay: int) -> tuple[np.ndarray, np.ndarray]:
    """Claim 2 slack ``B_on·D_A - q`` per slot, and the queue ``q``.

    ``q`` is the queue after the slot's arrivals, before service, under
    the queue's dust conventions: arrivals at or below dust are not
    enqueued and a dust-sized queue reads as empty.  Computed for any
    trace, certified workload or not.
    """
    backlog = np.asarray(trace.backlog, dtype=float)
    kept = np.asarray(trace.arrivals, dtype=float) - np.asarray(
        trace.dropped, dtype=float
    )
    previous = np.concatenate(([0.0], backlog[:-1]))
    queue = np.where(kept > _DUST, previous + kept, previous)
    queue = np.where(queue > _DUST, queue, 0.0)
    allocation = np.asarray(trace.allocation, dtype=float)
    return allocation * online_delay - queue, queue


def claim2_violations(margin: np.ndarray, queue: np.ndarray) -> np.ndarray:
    """Slots where the Claim 2 slack is negative beyond float noise."""
    return np.flatnonzero(margin < -_EPS * np.maximum(1.0, queue))


def _conserved_queue(
    kept: np.ndarray, delivered: np.ndarray, backlog: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The queue ``q(t) = q(t-1) + kept(t) - delivered(t)``, read as >= 0,
    and the mask of slots that clamped it.

    ``q`` may go below 0 by accumulated dust and is clamped at
    ``-_DUST·(t+1)``; a slot that clamps delivered bits the queue never
    held.  A slot whose ``q`` is not finite (a NaN or infinite input)
    says nothing about the queue, so the next slot starts from the
    recorded ``backlog`` there, or, where that is not finite either, from
    the queue before the slot: every later slot is still checked.
    Between clamps and non-finite slots ``q`` is one ``np.add.accumulate``
    over ``[q, kept(t), -delivered(t), ...]``: the loop's floats, added
    left to right.  After either the span restarts at one slot and doubles.
    """
    queue = np.empty(len(kept))
    clamps = np.zeros(len(kept), dtype=bool)
    t, q, span = 0, 0.0, _REPLAY_BLOCK
    while t < len(kept):
        stop = min(t + span, len(kept))
        steps = np.empty(2 * (stop - t) + 1)
        steps[0], steps[1::2], steps[2::2] = q, kept[t:stop], -delivered[t:stop]
        with np.errstate(invalid="ignore", over="ignore"):  # as Python floats do
            totals = np.add.accumulate(steps)  # totals[2 * i]: q before slot t + i
        run = totals[2::2]
        floor = -_DUST * np.arange(t + 1, stop + 1)
        below = run < floor
        broken = np.flatnonzero(below | ~np.isfinite(run))
        span = 1 if broken.size else min(2 * span, _REPLAY_BLOCK)
        if broken.size:
            at = int(broken[0])
            stop = t + at + 1
            if below[at]:
                run[at] = floor[at]
                clamps[stop - 1] = True
        queue[t:stop] = run[: stop - t]
        q = float(queue[stop - 1])
        if not math.isfinite(q):
            recorded = float(backlog[stop - 1])
            q = recorded if math.isfinite(recorded) else float(totals[2 * (stop - 1 - t)])
        t = stop
    return np.where(queue < 0.0, 0.0, queue), clamps


def _conservation_faults(
    kept: np.ndarray, delivered: np.ndarray, backlog: np.ndarray, finite: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One session's conservation check against its recorded backlog.

    Returns the :func:`_conserved_queue`, its clamp mask (slots that
    delivered bits the queue never held), the relative gap to the
    recorded backlog, and the mask of slots that fail either way.  A
    non-finite value compares false against every bound, so it would
    pass each later check; the gap is ``inf`` wherever ``finite`` is not
    set, which fails it here at its slot instead.
    """
    derived, overdrawn = _conserved_queue(kept, delivered, backlog)
    scale = np.maximum(1.0, np.abs(backlog))
    with np.errstate(invalid="ignore"):
        mismatch = np.where(finite, np.abs(derived - backlog) / scale, np.inf)
    return derived, overdrawn, mismatch, overdrawn | (mismatch > _EPS)


def session_sums(series: np.ndarray) -> np.ndarray:
    """Per-slot sum across sessions, in session order.

    Python's ``sum`` over each row, one column at a time: ``0 + x_0 + x_1
    + ...``, Neumaier-compensated as ``sum`` is from Python 3.12 on.  So a
    total equals what a per-slot loop over the session links computes.
    """
    series = np.asarray(series, dtype=float)
    totals = carry = np.zeros(len(series))
    with np.errstate(invalid="ignore", over="ignore"):  # as Python floats do
        for i, x in enumerate(series.T):
            t = totals + x
            if i and _COMPENSATED_SUM:
                big = np.abs(totals) >= np.abs(x)
                carry = carry + np.where(big, (totals - t) + x, (x - t) + totals)
            totals = t
        return np.where((carry != 0) & np.isfinite(carry), totals + carry, totals)


def peak(series: np.ndarray) -> float:
    """Largest value of a per-slot series (0 for an empty or negative one)."""
    return float(np.asarray(series, dtype=float).max(initial=0.0))


def switch_count(series: np.ndarray) -> int:
    """Allocation changes a series implies: the initial set plus switches.

    Links start at 0 bandwidth, so a nonzero first value is one change;
    every later slot whose value differs from the previous adds one.  A
    step into, out of or between non-finite values is a change too (its
    difference, NaN or infinite, says nothing about a no-op).
    """
    series = np.asarray(series, dtype=float)
    if len(series) == 0:
        return 0
    count = 0 if abs(series[0]) <= _CHANGE_EPS else 1
    finite = np.isfinite(series)
    with np.errstate(invalid="ignore", over="ignore"):
        steps = np.abs(np.diff(series)) > _CHANGE_EPS
    return count + int(np.count_nonzero(steps | ~(finite[1:] & finite[:-1])))


def _all_finite(*series: np.ndarray) -> np.ndarray:
    """Elementwise mask: every (same-shape) series is finite there."""
    return np.logical_and.reduce([np.isfinite(values) for values in series])


def _collect(indices, detail_fn, limit: int = _MAX_EXAMPLES):
    return tuple(detail_fn(int(t)) for t in list(indices)[:limit])


# ---------------------------------------------------------------------------
# Checks both certifiers run


def _corollary4_sessions(
    backlog: np.ndarray, kept: np.ndarray, profile, bounds: TheoremBounds
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Corollary 4 per session: ``(slack, q_offline, violating slots)``.

    ``backlog`` and ``kept`` hold one session (1-D) or one per column;
    the certificate ``profile`` must be shaped alike, finite and
    non-negative.  :func:`lindley_backlog` would read a NaN or infinite
    capacity as an emptied queue and a negative one as extra arrivals,
    and so check the trace against a schedule no offline link can run.

    Raises:
        ConfigError: on a profile of the wrong shape or with values
            that are not finite and ``>= 0``.
    """
    profile = np.asarray(profile, dtype=float)
    if profile.ndim != backlog.ndim or profile.shape[1:] != backlog.shape[1:]:
        raise ConfigError(
            f"certificate profile of shape {profile.shape} does not fit a "
            f"trace of shape {backlog.shape}: it must be 1-D for one session "
            "and have one column per session otherwise"
        )
    if not np.isfinite(profile).all() or (profile < 0).any():
        raise ConfigError("certificate profile must be finite and >= 0")

    def columns(series: np.ndarray) -> np.ndarray:
        return (series if series.ndim == 2 else series[:, None]).T

    sessions = []
    for online, arrived, capacity in zip(
        columns(backlog), columns(kept), columns(profile)
    ):
        slack, offline = corollary4_slack(
            online, arrived, capacity, bounds.offline_bandwidth, bounds.offline_delay
        )
        bad = np.flatnonzero(slack < -_EPS * np.maximum(1.0, online[: len(slack)]))
        sessions.append((slack, offline, bad))
    return sessions


def _session_slots(per_session) -> tuple[int, list[tuple[int, int]]]:
    """How many ``(slot, session)`` pairs failed, given each session's
    failing slots in session order, and the first of them to report."""
    count, first = 0, []
    for i, slots in enumerate(per_session):
        count += slots.size
        first += [(int(t), i) for t in slots[: _MAX_EXAMPLES - len(first)]]
    return count, first


#: Each allocation cap's wording: its source, the detail when it holds
#: and when it breaks (formatted with ``peak``, ``cap``, ``count`` of
#: failing slots and ``bounds``), its counterexamples' description and
#: value key, and the detail when the bounds give no cap.
_CAPS = {
    "max-bandwidth": (
        "model",
        "total allocation peak {peak:.4f} <= B_A={cap:.4f}",
        "allocation exceeds B_A at {count} slots (peak {peak:.4f})",
        ("total allocation above B_A", "total"),
        "skipped: no B_A supplied",
    ),
    "lemma10-16": (
        "Lemma 10 / 16",
        "overflow channel peak {peak:.4f} <= "
        "{bounds.overflow_factor:g}·B_O = {cap:.4f}",
        "overflow channel exceeds {cap:.4f} at {count} slots",
        ("overflow above the lemma bound", "overflow"),
        "skipped: no overflow-channel bound for this variant",
    ),
    "regular-cap": (
        "phase invariant",
        "regular channel peak {peak:.4f} <= 2·B_O + B_O/k = {cap:.4f}",
        "regular channel exceeds {cap:.4f} at {count} slots",
        ("regular channel above its cap", "regular"),
        "skipped: no regular-channel bound for this variant",
    ),
}


def _check_cap(
    report: CertificateReport,
    name: str,
    totals: np.ndarray,
    cap: float | None,
    bounds: TheoremBounds,
) -> None:
    """The allocation cap ``name``: ``totals <= cap`` at every slot, up to
    float noise, worded by :data:`_CAPS`; skipped when ``cap`` is None."""
    source, held, broken, (description, key), skipped = _CAPS[name]
    if cap is None:
        report.add(name, source, None, skipped)
        return
    top = peak(totals)
    bad = np.flatnonzero(totals > cap * (1 + _EPS) + _EPS)
    report.add(
        name,
        source,
        bool(bad.size == 0),
        (broken if bad.size else held).format(
            peak=top, cap=cap, count=bad.size, bounds=bounds
        ),
        margin=cap - top,
        counterexamples=_collect(
            bad,
            lambda t: Counterexample(
                t, description, {key: float(totals[t]), "cap": float(cap)}
            ),
        ),
    )


# ---------------------------------------------------------------------------
# Single-session certification


def certify_single(
    trace,
    bounds: TheoremBounds,
    profile: np.ndarray | None = None,
    label: str = "single-session trace",
) -> CertificateReport:
    """Certify a single-session trace against the paper's bounds.

    Args:
        trace: a :class:`~repro.sim.recorder.SingleSessionTrace` (or any
            object exposing the same arrays/event lists).
        bounds: the theorem bounds to certify (see the factories).
        profile: optional offline certificate schedule (per-slot bandwidth
            over the arrival horizon) enabling the Corollary 4 check.
        label: report heading.
    """
    report = CertificateReport(label=label)
    arrivals = np.asarray(trace.arrivals, dtype=float)
    allocation = np.asarray(trace.allocation, dtype=float)
    delivered = np.asarray(trace.delivered, dtype=float)
    backlog = np.asarray(trace.backlog, dtype=float)
    dropped = np.asarray(trace.dropped, dtype=float)
    effective = np.asarray(trace.effective, dtype=float)
    requested = np.asarray(trace.requested, dtype=float)
    kept = arrivals - dropped

    # -- conservation: re-derive the queue and compare -----------------------
    finite = _all_finite(
        arrivals, allocation, delivered, backlog, dropped, effective, requested
    )
    derived, overdrawn, mismatch, faults = _conservation_faults(
        kept, delivered, backlog, finite
    )
    with np.errstate(invalid="ignore"):
        over_effective = delivered - effective
    bad = np.flatnonzero(
        faults | (over_effective > _EPS * np.maximum(1.0, effective))
    )
    report.add(
        "conservation",
        "flow conservation",
        bool(bad.size == 0),
        "recorded backlog matches q(t-1) + kept(t) - delivered(t) and "
        "nothing is served beyond the effective bandwidth"
        if bad.size == 0
        else f"{bad.size} slots break conservation",
        # The worst finite gap: a non-finite slot's is inf by construction.
        margin=float(-mismatch[np.isfinite(mismatch)].max(initial=0.0)) if bad.size else 0.0,
        counterexamples=_collect(
            bad,
            lambda t: Counterexample(
                t,
                "delivered more than the queue held"
                if overdrawn[t]
                else "derived queue diverges from recorded backlog",
                {
                    "derived": float(derived[t]),
                    "recorded": float(backlog[t]),
                    "delivered": float(delivered[t]),
                    "effective": float(effective[t]),
                },
            ),
        ),
    )

    # -- Claim 2: B_on >= q / D_A -------------------------------------------
    # Conditional: on an uncertified workload the queue may exceed
    # B_A·D_A, at which point no allocation under the cap can satisfy it
    # (that regime is exactly what E-ROB measures).
    if bounds.assume_feasible:
        margin, queue_pre = claim2_margins(trace, bounds.online_delay)
        bad = claim2_violations(margin, queue_pre)
        report.add(
            "claim2",
            "Claim 2",
            bool(bad.size == 0),
            f"B_on >= q/D_A with D_A={bounds.online_delay} at every slot"
            if bad.size == 0
            else f"allocation outrun by the queue at {bad.size} slots",
            margin=float(margin.min(initial=math.inf)),
            counterexamples=_collect(
                bad,
                lambda t: Counterexample(
                    t,
                    "B_on < q/D_A",
                    {
                        "allocation": float(allocation[t]),
                        "queue": float(queue_pre[t]),
                        "required": float(queue_pre[t] / bounds.online_delay),
                    },
                ),
            ),
        )
    else:
        report.add(
            "claim2",
            "Claim 2",
            None,
            "skipped: workload carries no feasibility certificate",
        )

    # -- delay: independent FIFO replay ---------------------------------------
    service = replay_fifo_service(kept, effective, bounds.online_delay)
    replay_hist = service.histogram
    recorded_hist = {
        int(d): float(b) for d, b in dict(trace.delay_histogram).items()
    }
    all_delays = sorted(set(replay_hist) | set(recorded_hist))
    hist_bad = [
        d
        for d in all_delays
        if abs(replay_hist.get(d, 0.0) - recorded_hist.get(d, 0.0))
        > _EPS * max(1.0, replay_hist.get(d, 0.0), recorded_hist.get(d, 0.0))
    ]
    served_gap = np.abs(service.delivered - delivered)
    served_bad = int(
        np.count_nonzero(served_gap > _EPS * np.maximum(1.0, delivered))
    )
    report.add(
        "delay-replay",
        "recorder honesty",
        bool(not hist_bad and not served_bad),
        "recorded deliveries and delay histogram match an independent "
        "FIFO replay"
        if not hist_bad and not served_bad
        else f"histograms disagree at delays {hist_bad[:8]}, "
        f"deliveries at {served_bad} slots",
        counterexamples=tuple(
            Counterexample(
                d,
                "bits-at-delay mismatch (t axis = delay)",
                {
                    "replayed": replay_hist.get(d, 0.0),
                    "recorded": recorded_hist.get(d, 0.0),
                },
            )
            for d in hist_bad[:_MAX_EXAMPLES]
        ),
    )

    replay_max = service.max_delay
    if bounds.assume_feasible:
        passed = replay_max <= bounds.online_delay
        report.add(
            "lemma3",
            "Lemma 3",
            passed,
            f"replayed max bit delay {replay_max} <= D_A={bounds.online_delay}"
            if passed
            else f"replayed max bit delay {replay_max} > D_A={bounds.online_delay} "
            f"({len(service.late)} late deliveries)",
            margin=float(bounds.online_delay - replay_max),
            counterexamples=tuple(
                Counterexample(t, "bits delivered after D_A", {"delay": float(d)})
                for t, d in service.late[:_MAX_EXAMPLES]
            ),
        )
    else:
        report.add(
            "lemma3",
            "Lemma 3",
            None,
            "skipped: workload carries no feasibility certificate "
            f"(replayed max delay {replay_max})",
        )

    # -- Corollary 4: q_online <= q_offline + B_O * D_O ----------------------
    if profile is not None and bounds.assume_feasible:
        ((slack, offline_backlog, bad),) = _corollary4_sessions(
            backlog, kept, profile, bounds
        )
        budget = bounds.offline_bandwidth * bounds.offline_delay
        report.add(
            "corollary4",
            "Corollary 4",
            bool(bad.size == 0),
            "q_online <= q_offline + B_O·D_O against the certificate profile"
            if bad.size == 0
            else f"online queue exceeds the offline bound at {bad.size} slots",
            margin=float(slack.min(initial=math.inf)),
            counterexamples=_collect(
                bad,
                lambda t: Counterexample(
                    t,
                    "q_online > q_offline + B_O·D_O",
                    {
                        "online": float(backlog[t]),
                        "offline": float(offline_backlog[t]),
                        "budget": float(budget),
                    },
                ),
            ),
        )
    else:
        report.add(
            "corollary4",
            "Corollary 4",
            None,
            "skipped: no offline certificate profile supplied"
            if bounds.assume_feasible
            else "skipped: workload carries no feasibility certificate",
        )

    # -- Lemma 5: existential window utilization -----------------------------
    if (
        bounds.assume_feasible
        and bounds.online_utilization is not None
        and bounds.online_window is not None
    ):
        best = best_window_utilizations(arrivals, allocation, bounds.online_window)
        worst_best = _worst_best(best)
        target = bounds.online_utilization
        passed = worst_best >= target * (1 - _EPS)
        bad = np.flatnonzero(np.isfinite(best) & (best < target * (1 - _EPS)))
        report.add(
            "lemma5",
            "Lemma 5",
            passed,
            f"every slot has a window of <= {bounds.online_window} slots with "
            f"utilization >= U_O/3 = {target:.4f} (worst best {worst_best:.4f})"
            if passed
            else f"{bad.size} slots have no qualifying utilization window",
            margin=worst_best - target,
            counterexamples=_collect(
                bad,
                lambda t: Counterexample(
                    t,
                    "best trailing window below U_O/3",
                    {"best": float(best[t]), "target": target},
                ),
            ),
        )
    else:
        report.add(
            "lemma5",
            "Lemma 5",
            None,
            "skipped: no utilization constraint"
            if bounds.online_utilization is None
            else "skipped: workload carries no feasibility certificate",
        )

    # -- max bandwidth --------------------------------------------------------
    _check_cap(report, "max-bandwidth", allocation, bounds.max_bandwidth, bounds)

    # -- change-log consistency ----------------------------------------------
    strict = bool(np.array_equal(requested, allocation))
    _check_changes_single(report, trace, allocation, strict)
    return report


def _check_claim9(
    report: CertificateReport, offered: np.ndarray, bounds: TheoremBounds
) -> None:
    if not bounds.assume_feasible:
        report.add(
            "claim9",
            "Claim 9",
            None,
            "skipped: workload carries no feasibility certificate",
        )
        return
    excess, cumulative = claim9_series(
        offered, bounds.offline_bandwidth, bounds.offline_delay
    )
    worst = float(excess.max(initial=-math.inf))
    bad = claim9_violations(excess, cumulative)
    report.add(
        "claim9",
        "Claim 9",
        bool(bad.size == 0),
        "arrivals respect the (Δ + D_O)·B_O interval envelope"
        if bad.size == 0
        else f"envelope exceeded at {bad.size} slots (worst {worst:.4f} bits)",
        margin=-worst,
        counterexamples=_collect(
            bad,
            lambda t: Counterexample(
                t,
                "arrivals exceed the Claim 9 envelope",
                {"excess": float(excess[t])},
            ),
        ),
    )


def _check_changes_single(
    report: CertificateReport, trace, allocation: np.ndarray, strict: bool
) -> None:
    derived = switch_count(allocation)
    recorded = len(trace.changes)
    problems: list[str] = []
    previous = 0.0
    last_t = -1
    for change in trace.changes:
        t = int(change.t)
        if t < last_t:
            problems.append(f"change log out of order at t={t}")
            break
        if t >= len(allocation):
            problems.append(f"change at t={t} beyond the trace")
            break
        if strict and abs(float(change.new) - float(allocation[t])) > _CHANGE_EPS:
            problems.append(
                f"change at t={t} records new={change.new:.6g} but the "
                f"series holds {allocation[t]:.6g}"
            )
        if strict and abs(float(change.old) - previous) > _CHANGE_EPS:
            problems.append(
                f"change at t={t} records old={change.old:.6g} but the "
                f"previous level was {previous:.6g}"
            )
        previous = float(change.new)
        last_t = t
    if strict and derived != recorded:
        problems.append(
            f"allocation series implies {derived} changes, log records {recorded}"
        )
    if not strict and derived > recorded:
        # Under an unreliable signaling plane a link may change more than
        # once per slot, so the dense series can only under-count.
        problems.append(
            f"series implies {derived} changes but only {recorded} were logged"
        )
    report.add(
        "changes",
        "change accounting",
        not problems,
        f"change log ({recorded}) consistent with the allocation series "
        f"({derived} derived{'' if strict else ', tolerant mode'})"
        if not problems
        else "; ".join(problems[:4]),
    )


# ---------------------------------------------------------------------------
# Multi-session certification


def certify_multi(
    trace,
    bounds: TheoremBounds,
    profiles: np.ndarray | None = None,
    label: str = "multi-session trace",
) -> CertificateReport:
    """Certify a multi-session trace against the paper's bounds.

    Args:
        trace: a :class:`~repro.sim.recorder.MultiSessionTrace` lookalike.
        bounds: theorem bounds (see :func:`phased_bounds` /
            :func:`continuous_bounds` / :func:`combined_bounds`).
        profiles: optional per-session offline certificate schedules
            ``(horizon, k)``; enables the per-session Corollary-4-style
            queue bound.
        label: report heading.
    """
    report = CertificateReport(label=label)
    arrivals = np.asarray(trace.arrivals, dtype=float)
    regular = np.asarray(trace.regular_allocation, dtype=float)
    overflow = np.asarray(trace.overflow_allocation, dtype=float)
    delivered = np.asarray(trace.delivered, dtype=float)
    backlog = np.asarray(trace.backlog, dtype=float)
    extra = np.asarray(trace.extra_allocation, dtype=float)
    dropped = np.asarray(trace.dropped, dtype=float)
    k = arrivals.shape[1]

    # Ingress faults drop a uniform fraction per slot; attribute it back.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        offered_totals = arrivals.sum(axis=1)
        keep = np.where(
            offered_totals > _DUST, 1.0 - dropped / np.maximum(offered_totals, _DUST), 1.0
        )
        kept = arrivals * keep[:, None]

    # -- conservation per session --------------------------------------------
    # Non-finite values fail here, as in certify_single.
    finite = _all_finite(arrivals, regular, overflow, delivered, backlog)
    requested = np.asarray(trace.requested_total, dtype=float)
    finite &= _all_finite(extra, dropped, requested)[:, None]
    slipped, first_slips = _session_slots(
        np.flatnonzero(
            _conservation_faults(
                kept[:, i], delivered[:, i], backlog[:, i], finite[:, i]
            )[3]
        )
        for i in range(k)
    )
    report.add(
        "conservation",
        "flow conservation",
        not slipped,
        "every session's recorded backlog matches its Lindley recursion"
        if not slipped
        else f"{slipped} (slot, session) pairs break conservation",
        counterexamples=tuple(
            Counterexample(
                t, f"session {i} backlog diverges", {"session": float(i)}
            )
            for t, i in first_slips
        ),
    )

    # -- delay: recorded histograms + FIFO replay consistency ----------------
    histograms = [
        {int(d): float(b) for d, b in dict(h).items()}
        for h in trace.delay_histograms
    ]
    recorded_max = max((max(h, default=0) for h in histograms), default=0)
    replay_issues: list[str] = []
    for i in range(k):
        # Served at the recorded deliveries, the replay serves whatever the
        # queue holds; a delivery beyond it is a bit the session never held.
        # (A NaN gap is left to conservation, which fails its slot.)
        service = replay_fifo_service(kept[:, i], delivered[:, i])
        with np.errstate(invalid="ignore", over="ignore"):
            gaps = delivered[:, i] - service.delivered
            excess = float(gaps[gaps > _DUST].sum())
        replay_hist = service.histogram
        if excess > _EPS:
            replay_issues.append(
                f"session {i}: delivered {excess:.3g} bits it never held"
            )
        replay_bits = sum(replay_hist.values())
        recorded_bits = sum(histograms[i].values())
        if abs(replay_bits - recorded_bits) > _EPS * max(1.0, replay_bits):
            replay_issues.append(
                f"session {i}: histogram holds {recorded_bits:.6g} bits, "
                f"delivered {replay_bits:.6g}"
            )
        replay_max = service.max_delay
        recorded_session_max = max(histograms[i], default=0)
        if replay_max > recorded_session_max:
            # FIFO is delay-optimal for a fixed delivered series, so the
            # replayed max can never exceed the recorded (actual) max.
            replay_issues.append(
                f"session {i}: FIFO replay max {replay_max} exceeds "
                f"recorded max {recorded_session_max}"
            )
    report.add(
        "delay-replay",
        "recorder honesty",
        not replay_issues,
        "per-session delay histograms conserve bits and dominate the "
        "FIFO replay"
        if not replay_issues
        else "; ".join(replay_issues[:4]),
    )

    if bounds.assume_feasible:
        passed = recorded_max <= bounds.online_delay
        report.add(
            "lemma3",
            "Lemma 11 / 15",
            passed,
            f"max bit delay {recorded_max} <= D_A={bounds.online_delay}"
            if passed
            else f"max bit delay {recorded_max} > D_A={bounds.online_delay}",
            margin=float(bounds.online_delay - recorded_max),
        )
    else:
        report.add(
            "lemma3",
            "Lemma 11 / 15",
            None,
            "skipped: workload carries no feasibility certificate "
            f"(max delay {recorded_max})",
        )

    # -- Claim 9 arrival envelope --------------------------------------------
    _check_claim9(report, offered_totals, bounds)

    # -- Lemma 10 / 16 overflow bound and regular-channel cap -----------------
    overflow_totals = session_sums(overflow)
    factor = bounds.overflow_factor
    overflow_cap = None if factor is None else factor * bounds.offline_bandwidth
    _check_cap(report, "lemma10-16", overflow_totals, overflow_cap, bounds)
    regular_totals = session_sums(regular)
    _check_cap(report, "regular-cap", regular_totals, bounds.regular_bound, bounds)

    # -- total bandwidth cap ----------------------------------------------------
    totals = regular_totals + overflow_totals + extra
    _check_cap(report, "max-bandwidth", totals, bounds.max_bandwidth, bounds)

    # -- per-session queue bound against certificate profiles -------------------
    if profiles is not None and bounds.assume_feasible:
        sessions = _corollary4_sessions(backlog, kept, profiles, bounds)
        exceeded, first_pairs = _session_slots(bad for _, _, bad in sessions)
        report.add(
            "corollary4",
            "Corollary 4 (per session)",
            not exceeded,
            "each session's queue stays within its offline queue + B_O·D_O"
            if not exceeded
            else f"{exceeded} (slot, session) pairs exceed the bound",
            margin=min(
                [math.inf]
                + [float(slack.min(initial=math.inf)) for slack, _, _ in sessions]
            ),
            counterexamples=tuple(
                Counterexample(t, f"session {i} queue above bound", {})
                for t, i in first_pairs
            ),
        )
    else:
        report.add(
            "corollary4",
            "Corollary 4 (per session)",
            None,
            "skipped: no per-session certificate profiles supplied"
            if bounds.assume_feasible
            else "skipped: workload carries no feasibility certificate",
        )

    # -- change-log consistency -------------------------------------------------
    _check_changes_multi(report, trace, regular, overflow, extra)
    return report


def _check_changes_multi(
    report: CertificateReport,
    trace,
    regular: np.ndarray,
    overflow: np.ndarray,
    extra: np.ndarray,
) -> None:
    """Dense-vs-sparse change consistency, tolerant of intra-slot moves.

    Multi-session policies may set a link more than once inside one slot
    (phase-end adjustment followed by a stage RESET), so the dense series
    can only *under-count* the log; the end-of-slot value of the last
    logged change must still match the series.
    """
    k = regular.shape[1]
    slots = regular.shape[0]
    problems: list[str] = []
    derived_total = 0
    series_by_channel = {}
    for i in range(k):
        series_by_channel[(i, "regular")] = regular[:, i]
        series_by_channel[(i, "overflow")] = overflow[:, i]
    per_channel: dict[tuple[int, str], list] = {key: [] for key in series_by_channel}
    for session, channel, change in trace.local_changes:
        key = (int(session), str(channel))
        if key not in per_channel:
            problems.append(f"change log names unknown channel {key}")
            continue
        per_channel[key].append(change)
    for key, series in series_by_channel.items():
        derived = switch_count(series)
        derived_total += derived
        logged = per_channel[key]
        if derived > len(logged):
            problems.append(
                f"{key}: series implies {derived} changes, log has {len(logged)}"
            )
            continue
        last_at: dict[int, float] = {}
        for change in logged:
            last_at[int(change.t)] = float(change.new)
        for t, value in last_at.items():
            if 0 <= t < slots and abs(value - float(series[t])) > _CHANGE_EPS:
                problems.append(
                    f"{key}: last change at t={t} records {value:.6g} but "
                    f"the series holds {float(series[t]):.6g}"
                )
                break
    derived_extra = switch_count(extra)
    if derived_extra > len(trace.extra_changes):
        problems.append(
            f"extra channel: series implies {derived_extra} changes, "
            f"log has {len(trace.extra_changes)}"
        )
    recorded_total = len(trace.local_changes) + len(trace.extra_changes)
    report.add(
        "changes",
        "change accounting",
        not problems,
        f"change log ({recorded_total}) consistent with the dense series "
        f"({derived_total + derived_extra} derived)"
        if not problems
        else "; ".join(problems[:4]),
    )


def certify(trace, bounds: TheoremBounds, profile=None, label=None):
    """Dispatch on trace shape: 1-D arrivals -> single, 2-D -> multi."""
    arrivals = np.asarray(trace.arrivals)
    if arrivals.ndim == 1:
        return certify_single(
            trace, bounds, profile=profile, label=label or "single-session trace"
        )
    if arrivals.ndim == 2:
        return certify_multi(
            trace, bounds, profiles=profile, label=label or "multi-session trace"
        )
    raise ConfigError(f"cannot certify a trace with {arrivals.ndim}-D arrivals")
