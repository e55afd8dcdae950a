"""Live progress events for long-running batch work.

A multi-minute ``repro report --jobs 8`` fan-out used to be completely
silent until it finished.  This module is the event layer between the
batch runner and a terminal (or a log collector):

* :class:`ProgressEvent` — one observation: jobs completed/total, slots
  folded out of worker telemetry snapshots so far, slots/sec, and an ETA
  extrapolated from the completion rate.
* :class:`ProgressTracker` — the thread-safe fold.  The batch runner
  calls :meth:`job_done` from executor done-callbacks (worker threads),
  the tracker computes rates under a lock and hands a fresh event to its
  sink.  An optional heartbeat thread re-emits the latest state on an
  interval so the display stays alive through a long silent job.
* :class:`TtyProgress` / :class:`JsonlProgress` — render sinks: a
  carriage-return status line for humans, one JSON object per line for
  machines (``repro report --progress jsonl``).

Progress is strictly observational: events never feed back into the
batch, and the runner's results stay byte-identical with progress on or
off.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from dataclasses import dataclass

#: Seconds between keep-alive re-emissions while no job completes.
HEARTBEAT_SECONDS = 2.0


@dataclass(frozen=True)
class ProgressEvent:
    """One progress observation over a batch run."""

    kind: str            # "start" | "job" | "retry" | "fail" | "heartbeat" | "done"
    completed: int
    total: int
    label: str = ""      # what just finished, e.g. "E-T6[3]" (shard 3)
    elapsed_s: float = 0.0
    slots: float = 0.0   # cumulative slots seen in worker snapshots
    slots_per_sec: float = 0.0
    eta_s: float | None = None
    cache_hits: int = 0
    retries: int = 0     # shard attempts re-queued by the resilience layer
    failures: int = 0    # shards quarantined after exhausting their budget

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "completed": self.completed,
            "total": self.total,
            "label": self.label,
            "elapsed_s": round(self.elapsed_s, 3),
            "slots": self.slots,
            "slots_per_sec": round(self.slots_per_sec, 1),
            "eta_s": None if self.eta_s is None else round(self.eta_s, 1),
            "cache_hits": self.cache_hits,
            "retries": self.retries,
            "failures": self.failures,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ProgressEvent":
        """Rebuild an event from :meth:`as_dict` output (tolerant).

        Used by ``repro watch`` to re-render events scraped from a live
        server's ``GET /progress`` with the same TTY machinery; unknown
        keys are ignored, missing ones default.
        """
        eta = payload.get("eta_s")
        return cls(
            kind=str(payload.get("kind", "heartbeat")),
            completed=int(payload.get("completed", 0)),
            total=int(payload.get("total", 0)),
            label=str(payload.get("label", "")),
            elapsed_s=float(payload.get("elapsed_s", 0.0)),
            slots=float(payload.get("slots", 0.0)),
            slots_per_sec=float(payload.get("slots_per_sec", 0.0)),
            eta_s=None if eta is None else float(eta),
            cache_hits=int(payload.get("cache_hits", 0)),
            retries=int(payload.get("retries", 0)),
            failures=int(payload.get("failures", 0)),
        )


def snapshot_slots(snapshot: dict | None) -> float:
    """Processed slots recorded in a worker's metrics snapshot (or 0)."""
    if not isinstance(snapshot, dict):
        return 0.0
    slots = 0.0
    for name, value in (snapshot.get("counters") or {}).items():
        if name.endswith(".slots"):
            try:
                slots += float(value)
            except (TypeError, ValueError):
                continue
    return slots


class ProgressTracker:
    """Folds job completions into :class:`ProgressEvent` emissions.

    ``sink`` is any callable taking one event; a sink that raises is
    silently dropped from then on — progress must never fail a batch.
    """

    def __init__(
        self,
        total: int,
        sink,
        heartbeat_s: float | None = None,
        clock=time.monotonic,
    ):
        self.total = int(total)
        self._sink = sink
        self._clock = clock
        self._lock = threading.Lock()
        self._started = clock()
        self.completed = 0
        self.slots = 0.0
        self.cache_hits = 0
        self.retries = 0
        self.failures = 0
        self._stop = threading.Event()
        self._finished = False
        self._beat: threading.Thread | None = None
        if heartbeat_s is not None and heartbeat_s > 0:
            self._beat = threading.Thread(
                target=self._heartbeat, args=(heartbeat_s,), daemon=True
            )

    # -- lifecycle --------------------------------------------------------

    def start(self) -> None:
        self._emit(self._event("start"))
        if self._beat is not None:
            self._beat.start()

    def job_done(
        self, label: str, slots: float | None = 0.0, cached: bool = False
    ) -> None:
        """One job finished (called from any thread; ``slots=None`` = 0)."""
        with self._lock:
            self.completed += 1
            self.slots += float(slots or 0.0)
            if cached:
                self.cache_hits += 1
            event = self._event("job", label=label)
        self._emit(event)

    def job_retry(self, label: str) -> None:
        """One shard attempt failed and was re-queued (degradation signal)."""
        with self._lock:
            self.retries += 1
            event = self._event("retry", label=label)
        self._emit(event)

    def job_failed(self, label: str) -> None:
        """One shard exhausted its retry budget and was quarantined."""
        with self._lock:
            self.completed += 1
            self.failures += 1
            event = self._event("fail", label=label)
        self._emit(event)

    def finish(self) -> None:
        """Stop the heartbeat and emit the final "done" event (idempotent).

        Ordering matters: ``_stop`` is set *before* the join, and the
        join carries a timeout, so a heartbeat thread stuck inside a
        blocking sink (a dead TTY, a wedged pipe) can never hang
        ``finish`` — and since the thread is a daemon, it can never hang
        interpreter exit either.
        """
        if self._finished:
            return
        self._finished = True
        self._stop.set()
        if self._beat is not None and self._beat.is_alive():
            self._beat.join(timeout=1.0)
            if self._beat.is_alive():
                # Still wedged in its sink: disable the sink so the
                # "done" emission below cannot block on it too.
                self._sink = None
        with self._lock:
            event = self._event("done")
        self._emit(event)

    def __enter__(self) -> "ProgressTracker":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.finish()

    # -- internals --------------------------------------------------------

    def _event(self, kind: str, label: str = "") -> ProgressEvent:
        elapsed = max(self._clock() - self._started, 0.0)
        remaining = max(self.total - self.completed, 0)
        eta = (
            elapsed / self.completed * remaining
            if self.completed and remaining
            else (0.0 if self.total and not remaining else None)
        )
        return ProgressEvent(
            kind=kind,
            completed=self.completed,
            total=self.total,
            label=label,
            elapsed_s=elapsed,
            slots=self.slots,
            slots_per_sec=self.slots / elapsed if elapsed > 0 else 0.0,
            eta_s=eta,
            cache_hits=self.cache_hits,
            retries=self.retries,
            failures=self.failures,
        )

    def _emit(self, event: ProgressEvent) -> None:
        sink = self._sink
        if sink is None:
            return
        try:
            sink(event)
        except Exception as exc:
            # A broken sink must not fail the batch — but it must not
            # vanish silently either (that hid real accounting bugs).
            self._sink = None
            from repro.obs.runtime import count

            count("runner.callback_errors")
            print(
                f"warning: progress sink failed and was disabled: {exc!r}",
                file=sys.stderr,
            )

    def _heartbeat(self, interval: float) -> None:
        while not self._stop.wait(interval):
            with self._lock:
                if self.completed >= self.total:
                    return
                event = self._event("heartbeat")
            self._emit(event)


# -- render sinks ----------------------------------------------------------


#: Block glyphs for :func:`sparkline`, lowest to highest.
_SPARK_GLYPHS = "▁▂▃▄▅▆▇█"


def sparkline(values, width: int = 32) -> str:
    """A unicode sparkline of ``values`` (most recent ``width`` points).

    Scales the window to its own min/max (a flat series renders as the
    lowest glyph); non-finite values render as spaces.  Used by the
    ``repro watch`` dashboard to plot ``GET /series`` ring buffers.
    """
    tail = [float(v) for v in list(values)[-max(1, int(width)):]]
    if not tail:
        return ""
    finite = [v for v in tail if v == v and abs(v) != float("inf")]
    if not finite:
        return " " * len(tail)
    lo, hi = min(finite), max(finite)
    span = hi - lo
    top = len(_SPARK_GLYPHS) - 1
    out = []
    for v in tail:
        if not (v == v and abs(v) != float("inf")):
            out.append(" ")
        elif span <= 0:
            out.append(_SPARK_GLYPHS[0])
        else:
            out.append(_SPARK_GLYPHS[round((v - lo) / span * top)])
    return "".join(out)


class TtyProgress:
    """A single carriage-return status line on a terminal."""

    def __init__(self, stream=None, width: int = 79):
        self.stream = stream if stream is not None else sys.stderr
        self.width = width

    def format(self, event: ProgressEvent) -> str:
        """The status-line text for one event (no terminal control)."""
        parts = [f"[{event.completed:>3}/{event.total}]"]
        if event.slots_per_sec > 0:
            parts.append(f"{event.slots_per_sec / 1000:.1f}k slots/s")
        if event.eta_s is not None and event.kind not in ("done",):
            parts.append(f"ETA {event.eta_s:.0f}s")
        if event.cache_hits:
            parts.append(f"{event.cache_hits} cached")
        if event.retries:
            parts.append(f"{event.retries} retried")
        if event.failures:
            parts.append(f"{event.failures} FAILED")
        if event.label:
            parts.append(event.label)
        return " · ".join(parts)[: self.width]

    def __call__(self, event: ProgressEvent) -> None:
        line = self.format(event)
        self.stream.write("\r" + line.ljust(self.width))
        if event.kind == "done":
            self.stream.write("\n")
        self.stream.flush()


class JsonlProgress:
    """One JSON object per event — pipeable, tail-able, machine-readable."""

    def __init__(self, stream=None):
        self.stream = stream if stream is not None else sys.stderr

    def __call__(self, event: ProgressEvent) -> None:
        self.stream.write(json.dumps(event.as_dict(), sort_keys=True) + "\n")
        self.stream.flush()


#: The ``--progress`` choices of every subcommand; ``off`` and ``none``
#: are the same silent mode.
PROGRESS_MODES = ("auto", "tty", "jsonl", "off", "none")


def progress_sink(mode: str, stream=None):
    """Map a ``--progress`` CLI mode to a sink (None = no progress).

    ``auto`` renders the TTY line when the stream is a terminal and stays
    silent otherwise, so redirected/CI output is never littered with
    carriage returns.
    """
    stream = stream if stream is not None else sys.stderr
    if mode == "tty":
        return TtyProgress(stream)
    if mode == "jsonl":
        return JsonlProgress(stream)
    if mode == "auto":
        return TtyProgress(stream) if stream.isatty() else None
    return None
