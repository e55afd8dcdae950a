"""Wall-clock profiling hooks for the hot serve/allocate loops.

A :class:`ProfileTimer` wraps one run loop::

    with telemetry.profile("engine.run_single_session") as prof:
        while ...:
            ...
        prof.slots = t          # processed work, for slots/sec

On exit it appends a :class:`ProfileRecord` (name, seconds, slots,
slots/sec) to the owning telemetry's profile list; manifests and
``BENCH_OBS.json`` serialize these records.  When telemetry is off :data:`NULL_TIMER` is used
instead — entering/exiting it does nothing, so the run loop pays two
no-op calls per *run*, not per slot.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class ProfileRecord:
    """One completed timing of a profiled section."""

    name: str
    seconds: float
    slots: int

    @property
    def slots_per_sec(self) -> float:
        """Throughput (0 when no slots were attributed or time was ~0).

        Zero-slot runs (an empty arrival stream), zero-duration timings
        (a clock too coarse to see the section), and non-finite inputs
        all report 0.0 rather than dividing blind — a throughput of 0 is
        the documented "nothing measurable" value the exporters rely on.
        """
        if self.slots <= 0 or self.seconds <= 0.0:
            return 0.0
        if not math.isfinite(self.seconds):
            return 0.0
        return self.slots / self.seconds

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "seconds": self.seconds,
            "slots": self.slots,
            "slots_per_sec": self.slots_per_sec,
        }


class ProfileTimer:
    """Context manager timing one section; set ``.slots`` before exit."""

    __slots__ = ("name", "slots", "_sink", "_start", "record")

    def __init__(self, name: str, sink: list[ProfileRecord]):
        self.name = name
        self.slots = 0
        self._sink = sink
        self._start = 0.0
        self.record: ProfileRecord | None = None

    def __enter__(self) -> "ProfileTimer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # Clamp defensively: a stepped/adjusted clock must not produce a
        # negative duration, and a bogus .slots must not poison the sink.
        elapsed = max(time.perf_counter() - self._start, 0.0)
        try:
            slots = max(int(self.slots), 0)
        except (TypeError, ValueError):
            slots = 0
        self.record = ProfileRecord(
            name=self.name, seconds=elapsed, slots=slots
        )
        self._sink.append(self.record)


class NullProfileTimer:
    """The telemetry-off timer: enter/exit are no-ops."""

    __slots__ = ("slots",)

    def __init__(self) -> None:
        self.slots = 0

    def __enter__(self) -> "NullProfileTimer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


#: The shared telemetry-off timer (``slots`` writes are discarded state).
NULL_TIMER = NullProfileTimer()
