"""Tests for the live batch-progress event layer."""

import io
import json
import math
import threading
import time

from repro.obs.progress import (
    JsonlProgress,
    ProgressEvent,
    ProgressTracker,
    TtyProgress,
    progress_sink,
    snapshot_slots,
    sparkline,
)
from tests.references import CollectingProgress


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


def _tracker(total, sink, clock=None):
    return ProgressTracker(
        total, sink, heartbeat_s=None, clock=clock or FakeClock()
    )


class TestSnapshotSlots:
    def test_sums_slot_counters_only(self):
        snapshot = {
            "counters": {
                "engine.single.slots": 100,
                "engine.phased.slots": 50,
                "engine.single.changes": 999,
            }
        }
        assert snapshot_slots(snapshot) == 150.0

    def test_tolerates_garbage(self):
        assert snapshot_slots(None) == 0.0
        assert snapshot_slots({"counters": {"x.slots": "bogus"}}) == 0.0


class TestProgressTracker:
    def test_event_sequence_and_counts(self):
        sink = CollectingProgress()
        with _tracker(2, sink) as tracker:
            tracker.job_done("E-T6", slots=1000)
            tracker.job_done("E-T14", slots=500)
        kinds = [event.kind for event in sink.events]
        assert kinds == ["start", "job", "job", "done"]
        assert [e.completed for e in sink.events] == [0, 1, 2, 2]
        assert sink.events[-1].slots == 1500.0
        assert sink.events[1].label == "E-T6"

    def test_eta_extrapolates_from_completion_rate(self):
        clock = FakeClock()
        sink = CollectingProgress()
        tracker = _tracker(4, sink, clock)
        tracker.start()
        clock.now += 10.0
        tracker.job_done("a")
        # 1 of 4 done in 10s -> 3 remaining at 10 s/job.
        assert sink.events[-1].eta_s == 30.0
        clock.now += 10.0
        tracker.job_done("b")
        assert sink.events[-1].eta_s == 20.0
        tracker.job_done("c")
        tracker.job_done("d")
        assert sink.events[-1].eta_s == 0.0

    def test_slots_per_sec(self):
        clock = FakeClock()
        sink = CollectingProgress()
        tracker = _tracker(1, sink, clock)
        tracker.start()
        clock.now += 2.0
        tracker.job_done("a", slots=5000)
        assert sink.events[-1].slots_per_sec == 2500.0

    def test_cached_jobs_counted(self):
        sink = CollectingProgress()
        with _tracker(2, sink) as tracker:
            tracker.job_done("a", cached=True)
            tracker.job_done("b")
        assert sink.events[-1].cache_hits == 1

    def test_broken_sink_is_dropped_not_raised(self):
        calls = []

        def bad_sink(event):
            calls.append(event)
            raise RuntimeError("display went away")

        tracker = _tracker(1, bad_sink)
        tracker.start()           # first emit raises -> sink dropped
        tracker.job_done("a")     # must not raise
        tracker.finish()
        assert len(calls) == 1

    def test_broken_sink_is_counted_and_warned(self, capsys):
        from repro.obs import telemetry_session

        def bad_sink(event):
            raise RuntimeError("display went away")

        with telemetry_session() as tele:
            tracker = _tracker(1, bad_sink)
            tracker.start()
        counters = tele.registry.snapshot()["counters"]
        assert counters.get("runner.callback_errors", 0) == 1
        assert "progress sink failed" in capsys.readouterr().err

    def test_retry_events(self):
        sink = CollectingProgress()
        with _tracker(1, sink) as tracker:
            tracker.job_retry("a")
            tracker.job_retry("a")
            tracker.job_done("a")
        retries = [e for e in sink.events if e.kind == "retry"]
        assert len(retries) == 2
        # A retry is not progress: completed does not advance.
        assert all(e.completed == 0 for e in retries)
        assert sink.events[-1].retries == 2
        assert sink.events[-1].completed == 1

    def test_failed_events_complete_the_bar(self):
        sink = CollectingProgress()
        with _tracker(2, sink) as tracker:
            tracker.job_done("a")
            tracker.job_failed("b")
        fails = [e for e in sink.events if e.kind == "fail"]
        assert len(fails) == 1 and fails[0].label == "b"
        done = sink.events[-1]
        assert done.completed == done.total == 2
        assert done.failures == 1

    def test_as_dict_includes_resilience_fields(self):
        event = ProgressEvent(
            kind="retry", completed=1, total=4, retries=2, failures=1
        )
        doc = event.as_dict()
        assert doc["retries"] == 2
        assert doc["failures"] == 1

    def test_none_sink_is_a_noop(self):
        tracker = _tracker(1, None)
        tracker.start()
        tracker.job_done("a")
        tracker.finish()

    def test_heartbeat_emits_between_jobs(self):
        sink = CollectingProgress()
        tracker = ProgressTracker(2, sink, heartbeat_s=0.01)
        tracker.start()
        deadline = time.monotonic() + 2.0
        while (
            not any(e.kind == "heartbeat" for e in sink.events)
            and time.monotonic() < deadline
        ):
            time.sleep(0.005)
        tracker.job_done("a")
        tracker.job_done("b")
        tracker.finish()
        assert any(e.kind == "heartbeat" for e in sink.events)
        assert sink.events[-1].kind == "done"


class TestRenderSinks:
    EVENT = ProgressEvent(
        kind="job",
        completed=3,
        total=17,
        label="E-T6[1]",
        elapsed_s=4.5,
        slots=84200.0,
        slots_per_sec=42100.0,
        eta_s=12.0,
        cache_hits=2,
    )

    def test_tty_line_is_carriage_return_status(self):
        stream = io.StringIO()
        TtyProgress(stream)(self.EVENT)
        line = stream.getvalue()
        assert line.startswith("\r")
        assert "[  3/17]" in line
        assert "42.1k slots/s" in line
        assert "ETA 12s" in line
        assert "2 cached" in line
        assert "E-T6[1]" in line
        assert "\n" not in line

    def test_tty_shows_degradation(self):
        stream = io.StringIO()
        event = ProgressEvent(
            kind="job", completed=3, total=17, retries=2, failures=1
        )
        TtyProgress(stream)(event)
        line = stream.getvalue()
        assert "2 retried" in line
        assert "1 FAILED" in line

    def test_tty_done_ends_the_line(self):
        stream = io.StringIO()
        done = ProgressEvent(kind="done", completed=17, total=17)
        TtyProgress(stream)(done)
        assert stream.getvalue().endswith("\n")

    def test_jsonl_emits_one_parseable_object_per_event(self):
        stream = io.StringIO()
        sink = JsonlProgress(stream)
        sink(self.EVENT)
        sink(ProgressEvent(kind="done", completed=17, total=17))
        lines = stream.getvalue().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["kind"] == "job"
        assert first["completed"] == 3
        assert first["slots_per_sec"] == 42100.0
        assert json.loads(lines[1])["kind"] == "done"

    def test_progress_sink_modes(self):
        not_a_tty = io.StringIO()
        assert isinstance(progress_sink("tty", not_a_tty), TtyProgress)
        assert isinstance(progress_sink("jsonl", not_a_tty), JsonlProgress)
        assert progress_sink("none", not_a_tty) is None
        assert progress_sink("auto", not_a_tty) is None  # not a terminal

    def test_progress_sink_auto_on_terminal(self):
        class FakeTty(io.StringIO):
            def isatty(self):
                return True

        assert isinstance(progress_sink("auto", FakeTty()), TtyProgress)


class TestBlockingSinkShutdown:
    def test_finish_returns_despite_wedged_heartbeat_sink(self):
        """Regression: a sink that blocks forever must not hang finish().

        The heartbeat thread wedges inside the sink; finish() must set
        the stop flag first, give up on the join after its timeout, and
        disable the sink so the final "done" emission cannot block too.
        """
        entered = threading.Event()
        release = threading.Event()  # never set: the sink blocks forever

        def blocking_sink(event):
            if event.kind == "heartbeat":
                entered.set()
                release.wait(timeout=30.0)

        tracker = ProgressTracker(5, blocking_sink, heartbeat_s=0.01)
        tracker.start()
        assert entered.wait(timeout=5.0), "heartbeat never reached the sink"

        started = time.monotonic()
        tracker.finish()
        elapsed = time.monotonic() - started
        assert elapsed < 5.0  # join timeout is 1 s; must not wait for the sink
        assert tracker._sink is None  # disabled, so "done" couldn't block
        release.set()  # unwedge the daemon thread before the test exits

    def test_finish_is_idempotent(self):
        sink = CollectingProgress()
        tracker = _tracker(1, sink)
        tracker.start()
        tracker.job_done("a")
        tracker.finish()
        tracker.finish()
        assert [e.kind for e in sink.events] == ["start", "job", "done"]

    def test_heartbeat_thread_is_a_daemon(self):
        tracker = ProgressTracker(1, lambda e: None, heartbeat_s=60.0)
        assert tracker._beat is not None and tracker._beat.daemon


class TestEventRoundTrip:
    def test_from_dict_inverts_as_dict(self):
        event = ProgressEvent(
            kind="job",
            completed=3,
            total=9,
            label="E-T6[2]",
            elapsed_s=1.5,
            slots=4200.0,
            slots_per_sec=2800.0,
            eta_s=3.0,
            cache_hits=1,
            retries=2,
            failures=1,
        )
        rebuilt = ProgressEvent.from_dict(event.as_dict())
        assert rebuilt == event

    def test_from_dict_none_eta_and_defaults(self):
        assert ProgressEvent.from_dict({}).kind == "heartbeat"
        assert ProgressEvent.from_dict({"eta_s": None}).eta_s is None
        rebuilt = ProgressEvent.from_dict({"kind": "done", "eta_s": 2})
        assert rebuilt.eta_s == 2.0

    def test_from_dict_ignores_unknown_keys(self):
        rebuilt = ProgressEvent.from_dict({"kind": "job", "mystery": 1})
        assert rebuilt.kind == "job"


class TestSparkline:
    def test_maps_window_to_glyph_range(self):
        line = sparkline([0.0, 1.0, 2.0, 3.0], width=4)
        assert line[0] == "▁"
        assert line[-1] == "█"
        assert len(line) == 4

    def test_flat_series_is_lowest_glyph(self):
        assert sparkline([5.0, 5.0, 5.0]) == "▁▁▁"

    def test_tail_window(self):
        assert len(sparkline(range(100), width=8)) == 8

    def test_empty_and_non_finite(self):
        assert sparkline([]) == ""
        assert sparkline([math.nan, math.inf]) == "  "
        assert sparkline([1.0, math.nan, 2.0]) == "▁ █"
