"""Regression pins for degenerate profiling inputs.

``ProfileRecord.slots_per_sec`` is a documented "0.0 means nothing
measurable" signal consumed by the exporters, so the zero-slot /
zero-duration / garbage-slots cases are pinned here rather than left to
the guard's good intentions.
"""

import math

import pytest

from repro.obs.profiling import NULL_TIMER, ProfileRecord, ProfileTimer


class TestProfileRecordGuards:
    def test_zero_slots_reports_zero_throughput(self):
        assert ProfileRecord("r", seconds=1.0, slots=0).slots_per_sec == 0.0

    def test_zero_duration_reports_zero_throughput(self):
        assert ProfileRecord("r", seconds=0.0, slots=100).slots_per_sec == 0.0

    def test_negative_inputs_report_zero_throughput(self):
        assert ProfileRecord("r", seconds=-1.0, slots=100).slots_per_sec == 0.0
        assert ProfileRecord("r", seconds=1.0, slots=-5).slots_per_sec == 0.0

    @pytest.mark.parametrize("seconds", [math.inf, math.nan])
    def test_non_finite_duration_reports_zero_throughput(self, seconds):
        record = ProfileRecord("r", seconds=seconds, slots=100)
        assert record.slots_per_sec == 0.0

    def test_as_dict_is_finite_for_degenerate_records(self):
        for record in (
            ProfileRecord("r", seconds=0.0, slots=0),
            ProfileRecord("r", seconds=math.inf, slots=10),
        ):
            payload = record.as_dict()
            assert payload["slots_per_sec"] == 0.0
            assert math.isfinite(payload["slots_per_sec"])

    def test_normal_case_still_divides(self):
        assert ProfileRecord("r", seconds=0.5, slots=1000).slots_per_sec == 2000.0


class TestProfileTimerGuards:
    def test_zero_slot_run_produces_zero_throughput_record(self):
        sink = []
        with ProfileTimer("empty", sink):
            pass  # an empty arrival stream attributes no slots
        (record,) = sink
        assert record.slots == 0
        assert record.slots_per_sec == 0.0
        assert record.seconds >= 0.0

    def test_bogus_slots_coerced_to_zero(self):
        sink = []
        with ProfileTimer("bogus", sink) as prof:
            prof.slots = "not-a-number"
        assert sink[0].slots == 0
        assert sink[0].slots_per_sec == 0.0

    def test_negative_slots_clamped(self):
        sink = []
        with ProfileTimer("negative", sink) as prof:
            prof.slots = -100
        assert sink[0].slots == 0

    def test_float_slots_truncated_to_int(self):
        sink = []
        with ProfileTimer("float", sink) as prof:
            prof.slots = 100.9
        assert sink[0].slots == 100

    def test_record_survives_exception(self):
        sink = []
        with pytest.raises(RuntimeError):
            with ProfileTimer("raises", sink) as prof:
                prof.slots = 10
                raise RuntimeError("engine blew up")
        assert len(sink) == 1 and sink[0].slots == 10

    def test_null_timer_discards_everything(self):
        with NULL_TIMER as prof:
            prof.slots = 12345
        # Shared instance: state writes are discarded noise, no sink.
        assert not hasattr(NULL_TIMER, "_sink")
        NULL_TIMER.slots = 0  # leave the shared instance clean
