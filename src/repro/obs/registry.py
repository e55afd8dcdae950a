"""The metrics registry: counters, gauges, and value histograms.

The registry is the single sink for everything the instrumented layers
emit — the engine, the core algorithms' stage/phase machinery, and the
fault signaling plane.  Instruments are
get-or-created by name (``registry.counter("engine.single.slots")``), so
emitters never coordinate and a snapshot is one dict.

Two implementations share the interface:

* :class:`MetricsRegistry` — the live registry (``enabled = True``).
* :class:`NullRegistry` — the default when telemetry is off: every lookup
  returns a shared do-nothing instrument, so instrumented code costs one
  attribute check (or nothing at all, when the emitter hoists the
  ``enabled`` flag out of its hot loop).

Histograms bucket by powers of two — the same quantization the paper's
allocator uses — so a queue-depth histogram reads directly against the
allocation ladder.
"""

from __future__ import annotations

import math
import threading

import numpy as np

#: Mantissas (``np.frexp``, in [0.5, 1)) just above 0.5: values up to a
#: relative 2**-32 above a power of two.  There ``math.log2`` may round
#: down to the exact integer, so :meth:`Histogram.observe` files the value
#: under the power itself; the widest such band is ~2**-43.5.
_LOG2_BAND = 0.5 + 2.0**-33


def bucket_percentile(
    buckets: dict, count: int, q: float, maximum: float | None = None
) -> float:
    """Nearest-rank percentile over a power-of-two bucket dict.

    ``buckets`` maps upper bounds to hit counts (keys may be floats or
    the stringified bounds a snapshot carries).  Returns the smallest
    bucket bound whose cumulative count reaches rank ``ceil(q * count)``
    — exactly numpy's ``inverted_cdf`` quantile when every observation
    sits on a bucket boundary — clamped to the observed ``maximum`` so an
    estimate never exceeds reality.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"percentile q must be in [0, 1], got {q!r}")
    count = int(count)
    if count <= 0 or not buckets:
        return 0.0
    rank = max(1, math.ceil(q * count))
    cumulative = 0
    result = 0.0
    for bound in sorted(buckets, key=float):
        cumulative += int(buckets[bound])
        if cumulative >= rank:
            result = float(bound)
            break
    else:
        result = float(max(buckets, key=float))
    if maximum is not None and result > maximum:
        return maximum
    return result


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, {self.value:g})"


class Gauge:
    """A last-value instrument that also tracks its observed range."""

    __slots__ = ("name", "value", "min", "max", "updates")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.updates = 0

    def set(self, value: float) -> None:
        self.value = value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.updates += 1


class Histogram:
    """A value distribution with power-of-two buckets.

    ``observe(v)`` files ``v`` under the smallest power of two that is at
    least ``v`` (non-positive values land in bucket ``0``), and keeps the
    count/sum/min/max needed for means and ranges.  Time-series use: call
    ``observe`` once per slot with the sampled quantity (queue depth,
    allocation) and the buckets describe how the run spent its time.
    """

    __slots__ = ("name", "count", "total", "min", "max", "buckets")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.buckets: dict[float, int] = {}

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        bucket = 2.0 ** math.ceil(math.log2(value)) if value > 0.0 else 0.0
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1

    def observe_many(self, values) -> None:
        """:meth:`observe` each of ``values`` (1-D, finite) in order.

        Count, total (a sequential sum), min, max and bucket counts (keys
        inserted in first-seen order) equal the per-value calls.  Buckets
        come from ``np.frexp``: for ``v = m * 2**e`` with ``0.5 <= m < 1``,
        ``ceil(log2 v)`` is ``e - 1`` when ``m == 0.5`` and ``e`` otherwise,
        except in the band just above a power of two where ``math.log2``
        rounds to the integer; those few values take ``math.log2`` itself.
        """
        values = np.asarray(values, dtype=float)
        if not values.size:
            return
        self.count += values.size
        self.total = float(np.add.accumulate(np.concatenate(([self.total], values)))[-1])
        # argmin/argmax pick the first extreme, as the strict per-value tests do.
        low = float(values[np.argmin(values)])
        if low < self.min:
            self.min = low
        high = float(values[np.argmax(values)])
        if high > self.max:
            self.max = high
        positive = values > 0.0
        mantissa, exponent = np.frexp(values)
        exponent -= mantissa == 0.5
        for i in np.flatnonzero(positive & (mantissa > 0.5) & (mantissa < _LOG2_BAND)).tolist():
            exponent[i] = math.ceil(math.log2(float(values[i])))
        bounds = np.where(positive, np.ldexp(1.0, exponent), 0.0)
        keys, first, counts = np.unique(bounds, return_index=True, return_counts=True)
        buckets = self.buckets
        for i in np.argsort(first).tolist():
            key = float(keys[i])
            buckets[key] = buckets.get(key, 0) + int(counts[i])

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Estimated q-quantile (q in [0, 1]) from the bucket counts.

        Nearest-rank over the power-of-two buckets: the answer is a
        bucket upper bound (clamped to the observed max), so it is exact
        whenever observations land on bucket boundaries and otherwise
        over-estimates by at most one bucket (a factor of 2).
        """
        return bucket_percentile(self.buckets, self.count, q, maximum=self.max)

    def as_dict(self) -> dict:
        """JSON-ready summary (buckets keyed by their upper bound).

        Snapshots buckets through an atomic ``list()`` copy so a
        concurrent ``observe`` creating a new bucket cannot raise
        mid-iteration (see the registry's thread-safety contract).
        """
        count = self.count
        return {
            "count": count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min if count else 0.0,
            "max": self.max if count else 0.0,
            "buckets": {
                f"{bound:g}": hits
                for bound, hits in sorted(list(self.buckets.items()))
            },
        }


class _NullCounter:
    __slots__ = ()
    name = "null"
    value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass


class _NullGauge:
    __slots__ = ()
    name = "null"
    value = 0.0
    min = 0.0
    max = 0.0
    updates = 0

    def set(self, value: float) -> None:
        pass


class _NullHistogram:
    __slots__ = ()
    name = "null"
    count = 0
    total = 0.0
    min = 0.0
    max = 0.0
    mean = 0.0

    def observe(self, value: float) -> None:
        pass

    def observe_many(self, values) -> None:
        pass

    def percentile(self, q: float) -> float:
        return 0.0

    def as_dict(self) -> dict:
        return {"count": 0, "total": 0.0, "mean": 0.0, "min": 0.0,
                "max": 0.0, "buckets": {}}


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()


class MetricsRegistry:
    """Named counters, gauges, and histograms, created on first use.

    Thread-safety contract (the live-observatory reader side):

    * Instrument mutation (``inc``/``set``/``observe``) is lock-free —
      the hot loops pay no synchronization, relying on the GIL's
      per-bytecode atomicity.  Individual reads may therefore observe a
      value mid-update-sequence (e.g. a gauge's ``value`` before its
      ``max``), but never a torn float.
    * :meth:`snapshot` and :meth:`merge_snapshot` serialize against each
      other on an internal lock, so a concurrent scrape never observes a
      half-merged worker shard.  :meth:`snapshot` additionally iterates
      over atomic ``list()`` copies of the instrument dicts, so a hot
      loop creating a new instrument (or histogram bucket) mid-snapshot
      cannot raise ``RuntimeError``; the :class:`~repro.obs.series.Sampler`
      still guards each tick as a belt-and-braces backstop.
    """

    enabled = True

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._merge_lock = threading.Lock()

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(name)
        return instrument

    def counter_value(self, name: str) -> float:
        """Current value of a counter (0 if never incremented)."""
        instrument = self._counters.get(name)
        return instrument.value if instrument is not None else 0.0

    def snapshot(self) -> dict:
        """A JSON-ready dump of every instrument, sorted by name.

        Serialized against :meth:`merge_snapshot` (never observes a
        half-merged shard) and race-tolerant against concurrent hot-loop
        mutation via atomic ``list()`` copies.
        """
        with self._merge_lock:
            return {
                "counters": {
                    name: counter.value
                    for name, counter in sorted(list(self._counters.items()))
                },
                "gauges": {
                    name: {
                        "value": g.value,
                        "min": g.min if g.updates else 0.0,
                        "max": g.max if g.updates else 0.0,
                        "updates": g.updates,
                    }
                    for name, g in sorted(list(self._gauges.items()))
                },
                "histograms": {
                    name: histogram.as_dict()
                    for name, histogram in sorted(
                        list(self._histograms.items())
                    )
                },
            }

    def merge_snapshot(self, snapshot: dict) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        The batch runner uses this to aggregate worker-process telemetry
        into the parent registry: counters add, gauges keep the incoming
        last value while widening the observed range, histogram buckets
        add.  Malformed sections are skipped rather than raising — a
        telemetry merge must never fail a batch.

        Holds the registry lock for the whole fold, so a concurrent
        :meth:`snapshot` (e.g. a live ``GET /metrics`` scrape) sees each
        worker shard either fully merged or not at all.  Counters,
        histogram fields, and gauge min/max/updates are commutative
        across shards; only a gauge's last ``value`` is order-dependent —
        :meth:`refold_gauge_values` restores determinism for those after
        an out-of-order (completion-time) merge pass.
        """
        if not isinstance(snapshot, dict):
            return
        with self._merge_lock:
            self._merge_locked(snapshot)

    def _merge_locked(self, snapshot: dict) -> None:
        for name, value in (snapshot.get("counters") or {}).items():
            try:
                amount = float(value)
            except (TypeError, ValueError):
                continue
            self.counter(name).inc(amount)
        for name, raw in (snapshot.get("gauges") or {}).items():
            if not isinstance(raw, dict):
                continue
            try:
                updates = int(raw.get("updates", 0))
                if updates <= 0:
                    continue
                gauge = self.gauge(name)
                gauge.value = float(raw.get("value", 0.0))
                gauge.min = min(gauge.min, float(raw.get("min", 0.0)))
                gauge.max = max(gauge.max, float(raw.get("max", 0.0)))
                gauge.updates += updates
            except (TypeError, ValueError):
                continue
        for name, raw in (snapshot.get("histograms") or {}).items():
            if not isinstance(raw, dict):
                continue
            try:
                count = int(raw.get("count", 0))
                if count <= 0:
                    continue
                histogram = self.histogram(name)
                histogram.count += count
                histogram.total += float(raw.get("total", 0.0))
                histogram.min = min(histogram.min, float(raw.get("min", 0.0)))
                histogram.max = max(histogram.max, float(raw.get("max", 0.0)))
                for bound, hits in (raw.get("buckets") or {}).items():
                    bucket = float(bound)
                    histogram.buckets[bucket] = (
                        histogram.buckets.get(bucket, 0) + int(hits)
                    )
            except (TypeError, ValueError):
                continue

    def refold_gauge_values(self, snapshot: dict) -> None:
        """Re-assert the gauge last-values a snapshot carries — only those.

        The batch runner merges worker snapshots live, in completion
        order, so a mid-run scrape sees them immediately.  That is safe
        for every commutative field, but a gauge's last ``value`` then
        depends on completion order.  Calling this once per snapshot in
        submission (seq) order after the batch finishes re-sets exactly
        those values — no counter/histogram/min/max/updates changes, so
        nothing is double-counted — and the final registry state is
        byte-identical to the old end-only submission-order merge.
        """
        if not isinstance(snapshot, dict):
            return
        with self._merge_lock:
            for name, raw in (snapshot.get("gauges") or {}).items():
                if not isinstance(raw, dict):
                    continue
                try:
                    if int(raw.get("updates", 0)) <= 0:
                        continue
                    self.gauge(name).value = float(raw.get("value", 0.0))
                except (TypeError, ValueError):
                    continue


    def histogram_totals(self) -> dict[str, float]:
        """Every histogram's ``total`` (the base for a later refold)."""
        with self._merge_lock:
            return {
                name: histogram.total
                for name, histogram in list(self._histograms.items())
            }

    def refold_histogram_totals(self, base: dict[str, float], snapshots) -> None:
        """Re-sum histogram totals as ``base`` plus each snapshot, in order.

        Float addition is not associative, so after a completion-order
        merge a ``total`` depends on which shard finished first.  Given the
        totals from before the merge and the snapshots in submission
        order, this recomputes every total the snapshots touched exactly
        as an in-order merge would.  Counts, buckets, min and max are
        left alone (they are order-independent).
        """
        with self._merge_lock:
            totals: dict[str, float] = {}
            for snapshot in snapshots:
                if not isinstance(snapshot, dict):
                    continue
                for name, raw in (snapshot.get("histograms") or {}).items():
                    if not isinstance(raw, dict):
                        continue
                    try:
                        if int(raw.get("count", 0)) <= 0:
                            continue
                        total = float(raw.get("total", 0.0))
                    except (TypeError, ValueError):
                        continue
                    totals[name] = totals.get(name, base.get(name, 0.0)) + total
            for name, total in totals.items():
                self.histogram(name).total = total


class NullRegistry:
    """The telemetry-off registry: every instrument is a shared no-op."""

    enabled = False

    def counter(self, name: str) -> _NullCounter:
        return _NULL_COUNTER

    def gauge(self, name: str) -> _NullGauge:
        return _NULL_GAUGE

    def histogram(self, name: str) -> _NullHistogram:
        return _NULL_HISTOGRAM

    def counter_value(self, name: str) -> float:
        return 0.0

    def snapshot(self) -> dict:
        return {"counters": {}, "gauges": {}, "histograms": {}}

    def merge_snapshot(self, snapshot: dict) -> None:
        pass

    def refold_gauge_values(self, snapshot: dict) -> None:
        pass

    def histogram_totals(self) -> dict[str, float]:
        return {}

    def refold_histogram_totals(self, base: dict[str, float], snapshots) -> None:
        pass


#: The shared telemetry-off registry.
NULL_REGISTRY = NullRegistry()
