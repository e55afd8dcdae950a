"""Tests for the telemetry runtime context."""

from repro.obs.profiling import NULL_TIMER
from repro.obs.runtime import (
    DISABLED,
    Telemetry,
    count,
    get_telemetry,
    set_telemetry,
    telemetry_session,
)


class TestCurrentTelemetry:
    def test_default_is_disabled(self):
        telemetry = get_telemetry()
        assert telemetry is DISABLED
        assert telemetry.enabled is False
        assert telemetry.registry.enabled is False
        assert telemetry.tracer.enabled is False
        assert telemetry.profile("x") is NULL_TIMER

    def test_session_installs_and_restores(self):
        before = get_telemetry()
        with telemetry_session() as tele:
            assert tele.enabled
            assert get_telemetry() is tele
        assert get_telemetry() is before

    def test_session_restores_on_error(self):
        try:
            with telemetry_session():
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert get_telemetry() is DISABLED

    def test_sessions_nest(self):
        with telemetry_session() as outer:
            with telemetry_session() as inner:
                assert get_telemetry() is inner
            assert get_telemetry() is outer

    def test_set_none_restores_disabled(self):
        set_telemetry(Telemetry())
        assert get_telemetry().enabled
        set_telemetry(None)
        assert get_telemetry() is DISABLED

    def test_explicit_telemetry_object(self):
        mine = Telemetry()
        with telemetry_session(mine) as tele:
            assert tele is mine


class TestHelpers:
    def test_count_when_enabled(self):
        with telemetry_session() as tele:
            count("events")
            count("events", 2)
        assert tele.registry.counter_value("events") == 3.0

    def test_count_no_op_when_disabled(self):
        count("events")  # outside any session: must not blow up or record
        assert DISABLED.registry.snapshot()["counters"] == {}


class TestProfiling:
    def test_profile_records_slots_per_sec(self):
        telemetry = Telemetry()
        with telemetry.profile("loop") as prof:
            prof.slots = 1000
        (record,) = telemetry.profiles
        assert record.name == "loop"
        assert record.slots == 1000
        assert record.seconds > 0
        assert record.slots_per_sec > 0
        assert telemetry.profile_summary()[0]["slots"] == 1000

    def test_zero_slot_record_has_zero_throughput(self):
        telemetry = Telemetry()
        with telemetry.profile("empty"):
            pass
        assert telemetry.profiles[0].slots_per_sec == 0.0

    def test_null_timer_is_inert(self):
        with NULL_TIMER as timer:
            timer.slots = 123
        assert DISABLED.profiles == []
