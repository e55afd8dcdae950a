"""Unit tests for the fault-tolerance layer (`repro.runner.resilience`).

Worker functions live at module level so the process pool can resolve
them by reference in forked children.  Each takes the attempt number, so
"fail on the first try, succeed on the retry" needs no shared state.
"""

import json
import os
import signal
import time

import pytest

from repro.errors import ConfigError, ResilienceError
from repro.obs import telemetry_session
from repro.runner.cache import payload_digest
from repro.runner.resilience import (
    DEFAULT_POLICY,
    FAIL_FAST,
    ChaosError,
    ChaosPlan,
    FailedShard,
    Job,
    RunPolicy,
    SweepJournal,
    last_worker_pids,
    run_resilient,
    signal_guard,
)

PAYLOAD = {"v": 1}


def _ok(attempt):
    return PAYLOAD, None, payload_digest(PAYLOAD)


def _flaky(attempt):
    if attempt == 0:
        raise ValueError("first try always fails")
    return PAYLOAD, None, payload_digest(PAYLOAD)


def _crash(attempt):
    if attempt == 0:
        os._exit(5)
    return PAYLOAD, None, payload_digest(PAYLOAD)


def _hang(attempt):
    if attempt == 0:
        time.sleep(30.0)
    return PAYLOAD, None, payload_digest(PAYLOAD)


def _lie(attempt):
    if attempt == 0:
        return {"v": "tampered"}, None, payload_digest(PAYLOAD)
    return PAYLOAD, None, payload_digest(PAYLOAD)


def _always_fail(attempt):
    raise ValueError("permanently broken")


def _pid(attempt):
    payload = {"pid": os.getpid()}
    return payload, None, payload_digest(payload)


def _job(i):
    return Job(
        key=f"k{i}", label=f"L{i}", kind="point", experiment_id="E-X",
        seed=0, scale=1.0, index=i, point=None, seq=i,
    )


def _submit_by_index(workers):
    """submit() dispatching to a per-job worker function by index."""

    def submit(pool, job, attempt):
        return pool.submit(workers[job.index], attempt)

    return submit


FAST_RETRY = RunPolicy(max_attempts=3, base_backoff_s=0.01, max_backoff_s=0.05)


class _Tracker:
    """Records tracker callbacks as ``(event, label)`` tuples."""

    def __init__(self, calls):
        self.calls = calls

    def job_done(self, label, slots=0.0, cached=False):
        self.calls.append(("done", label))

    def job_retry(self, label):
        self.calls.append(("retry", label))

    def job_failed(self, label):
        self.calls.append(("fail", label))


class TestRunPolicy:
    def test_backoff_is_exponential_and_capped(self):
        policy = RunPolicy(
            base_backoff_s=0.1, backoff_factor=2.0, max_backoff_s=0.3
        )
        assert policy.backoff(1) == pytest.approx(0.1)
        assert policy.backoff(2) == pytest.approx(0.2)
        assert policy.backoff(3) == pytest.approx(0.3)  # capped
        assert policy.backoff(10) == pytest.approx(0.3)

    def test_defaults(self):
        assert DEFAULT_POLICY.max_attempts == 3
        assert DEFAULT_POLICY.run_timeout is None
        assert not DEFAULT_POLICY.strict
        assert FAIL_FAST.max_attempts == 1 and FAIL_FAST.strict

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"run_timeout": 0.0},
            {"run_timeout": -1.0},
            {"base_backoff_s": -0.1},
            {"backoff_factor": 0.5},
            {"max_backoff_s": -1.0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            RunPolicy(**kwargs)


class TestFailedShard:
    def test_as_dict_round_trips_points(self):
        shard = FailedShard(
            experiment_id="E-T6", kind="point", label="E-T6[1]", index=1,
            point=(0.5, 2), seed=7, scale=0.3, error="ValueError: x",
            attempts=3,
        )
        doc = shard.as_dict()
        assert json.loads(json.dumps(doc)) == doc
        assert doc["point"] == [0.5, 2]
        assert doc["error"] == "ValueError: x"

    def test_as_dict_tolerates_unserializable_points(self):
        shard = FailedShard(
            experiment_id="E", kind="point", label="E[0]", index=0,
            point=object(), seed=0, scale=1.0, error="e", attempts=1,
        )
        assert isinstance(shard.as_dict()["point"], str)


class TestSweepJournal:
    def test_round_trip_across_instances(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        with SweepJournal(path) as journal:
            assert journal.record("a", {"x": 1})
            assert journal.record("b", {"y": [1, 2]})
        reloaded = SweepJournal(path)
        assert len(reloaded) == 2
        assert reloaded.get("a") == {"x": 1}
        assert "b" in reloaded and "c" not in reloaded

    def test_header_line_first(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        with SweepJournal(path) as journal:
            journal.record("a", {"x": 1})
        first = json.loads(path.read_text().splitlines()[0])
        assert first["kind"] == "header"
        assert first["journal_schema"] == 1

    def test_record_is_idempotent(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        with SweepJournal(path) as journal:
            assert journal.record("a", {"x": 1})
            assert not journal.record("a", {"x": 1})
        record_lines = [
            line for line in path.read_text().splitlines() if '"key"' in line
        ]
        assert len(record_lines) == 1

    def test_torn_final_line_is_skipped(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        with SweepJournal(path) as journal:
            journal.record("a", {"x": 1})
        with open(path, "a") as handle:
            handle.write('{"key": "b", "dig')  # torn write mid-crash
        reloaded = SweepJournal(path)
        assert len(reloaded) == 1
        assert reloaded.malformed == 1

    def test_digest_mismatch_is_dropped_and_counted(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        with SweepJournal(path) as journal:
            journal.record("a", {"x": 1})
        bad = json.dumps(
            {"key": "b", "digest": "0" * 64, "payload": {"y": 2}}
        )
        with open(path, "a") as handle:
            handle.write(bad + "\n")
        reloaded = SweepJournal(path)
        assert len(reloaded) == 1
        assert reloaded.corrupt == 1
        assert reloaded.get("b") is None

    def test_resumed_journal_appends(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        with SweepJournal(path) as journal:
            journal.record("a", {"x": 1})
        with SweepJournal(path) as journal:
            assert not journal.record("a", {"x": 1})  # already checkpointed
            assert journal.record("b", {"y": 2})
        assert len(SweepJournal(path)) == 2


class TestChaosPlan:
    def test_decisions_are_deterministic(self):
        plan = ChaosPlan(kill_p=0.3, raise_p=0.3, tamper_p=0.3, seed=5)
        decisions = [plan.decide(f"E[{i}]", 0) for i in range(20)]
        again = [plan.decide(f"E[{i}]", 0) for i in range(20)]
        assert decisions == again
        assert len(set(decisions)) > 1  # a mix, not one constant action

    def test_max_faults_forces_clean_attempts(self):
        plan = ChaosPlan(raise_p=1.0, seed=0, max_faults=2)
        assert plan.decide("E[0]", 0) == "raise"
        assert plan.decide("E[0]", 1) == "raise"
        assert plan.decide("E[0]", 2) == "none"

    def test_inflict_raise(self):
        plan = ChaosPlan(raise_p=1.0, seed=0)
        with pytest.raises(ChaosError):
            plan.inflict("E[0]", 0)

    def test_inline_kill_and_hang_downgrade_to_raise(self):
        for plan in (ChaosPlan(kill_p=1.0), ChaosPlan(hang_p=1.0)):
            with pytest.raises(ChaosError):
                plan.inflict("E[0]", 0, in_worker=False)

    def test_tamper_only_on_tamper_decision(self):
        plan = ChaosPlan(tamper_p=1.0, seed=0)
        tampered = plan.tamper({"x": 1}, "E[0]", 0)
        assert tampered.get("__chaos_tampered__")
        clean = ChaosPlan(raise_p=1.0, seed=0)
        assert clean.tamper({"x": 1}, "E[0]", 0) == {"x": 1}

    def test_null_plan(self):
        assert ChaosPlan().is_null
        assert not ChaosPlan(kill_p=0.1).is_null
        assert ChaosPlan().decide("E[0]", 0) == "none"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kill_p": 1.5},
            {"raise_p": -0.1},
            {"kill_p": 0.6, "hang_p": 0.6},
            {"max_faults": -1},
            {"hang_s": 0.0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            ChaosPlan(**kwargs)


class TestRunResilient:
    def test_all_success(self):
        jobs = [_job(i) for i in range(4)]
        results, failed, stats = run_resilient(
            jobs, _submit_by_index([_ok] * 4), FAST_RETRY, max_workers=2
        )
        assert set(results) == {"k0", "k1", "k2", "k3"}
        assert all(payload == PAYLOAD for payload, _ in results.values())
        assert failed == []
        assert stats.retries == stats.crashes == stats.timeouts == 0

    def test_retry_then_success(self):
        jobs = [_job(i) for i in range(2)]
        results, failed, stats = run_resilient(
            jobs, _submit_by_index([_flaky, _ok]), FAST_RETRY, max_workers=2
        )
        assert set(results) == {"k0", "k1"}
        assert failed == []
        assert stats.retries == 1

    def test_crash_rebuilds_pool_and_recovers(self):
        jobs = [_job(i) for i in range(3)]
        results, failed, stats = run_resilient(
            jobs,
            _submit_by_index([_crash, _ok, _ok]),
            RunPolicy(max_attempts=4, base_backoff_s=0.01),
            max_workers=2,
        )
        assert set(results) == {"k0", "k1", "k2"}
        assert failed == []
        assert stats.crashes >= 1
        assert stats.pool_rebuilds >= 1

    def test_hung_worker_times_out_and_recovers(self):
        jobs = [_job(i) for i in range(2)]
        results, failed, stats = run_resilient(
            jobs,
            _submit_by_index([_hang, _ok]),
            RunPolicy(max_attempts=3, run_timeout=1.0, base_backoff_s=0.01),
            max_workers=2,
        )
        assert set(results) == {"k0", "k1"}
        assert failed == []
        assert stats.timeouts >= 1
        assert stats.pool_rebuilds >= 1

    def test_tampered_payload_detected_and_retried(self):
        jobs = [_job(0)]
        results, failed, stats = run_resilient(
            jobs, _submit_by_index([_lie]), FAST_RETRY, max_workers=1
        )
        assert results["k0"][0] == PAYLOAD
        assert failed == []
        assert stats.corrupt_payloads == 1

    def test_exhausted_shard_is_quarantined_keep_going(self):
        jobs = [_job(i) for i in range(2)]
        results, failed, stats = run_resilient(
            jobs,
            _submit_by_index([_always_fail, _ok]),
            RunPolicy(max_attempts=2, base_backoff_s=0.01),
            max_workers=2,
        )
        assert set(results) == {"k1"}  # partial results survive
        assert len(failed) == 1
        assert failed[0].label == "L0"
        assert failed[0].attempts == 2
        assert "permanently broken" in failed[0].error

    def test_strict_mode_aborts(self):
        jobs = [_job(0)]
        with pytest.raises(ResilienceError) as excinfo:
            run_resilient(
                jobs,
                _submit_by_index([_always_fail]),
                RunPolicy(max_attempts=2, base_backoff_s=0.01, strict=True),
                max_workers=1,
            )
        assert len(excinfo.value.failed) == 1

    def test_tracker_sees_retries_and_completions(self):
        calls = []
        run_resilient(
            [_job(0)], _submit_by_index([_flaky]), FAST_RETRY,
            max_workers=1, tracker=_Tracker(calls),
        )
        assert ("retry", "L0") in calls
        assert ("done", "L0") in calls

    def test_broken_on_success_is_counted_not_fatal(self, capsys):
        def explode(job, payload):
            raise RuntimeError("disk full")

        with telemetry_session() as tele:
            results, failed, _ = run_resilient(
                [_job(0)], _submit_by_index([_ok]), FAST_RETRY,
                max_workers=1, on_success=explode,
            )
        assert set(results) == {"k0"} and failed == []
        counters = tele.registry.snapshot()["counters"]
        assert counters.get("runner.callback_errors", 0) >= 1
        assert "callback" in capsys.readouterr().err

    def test_worker_pids_are_recorded(self):
        before = set(last_worker_pids())
        run_resilient(
            [_job(0)], _submit_by_index([_ok]), FAST_RETRY, max_workers=2
        )
        assert last_worker_pids() - before

    def test_one_worker_runs_in_process(self):
        before = set(last_worker_pids())
        results, failed, stats = run_resilient(
            [_job(i) for i in range(2)], _submit_by_index([_pid, _pid]),
            FAST_RETRY, max_workers=1,
        )
        assert failed == []
        pids = [results[f"k{i}"][0]["pid"] for i in range(2)]
        assert pids == [os.getpid()] * 2
        assert last_worker_pids() == before
        assert stats.pool_rebuilds == 0

    def test_one_worker_runs_jobs_in_seq_order_and_reports_each(self):
        calls = []

        def submit(pool, job, attempt):
            calls.append(("run", job.label, attempt))
            return pool.submit(_flaky if job.index == 0 else _ok, attempt)

        run_resilient(
            [_job(i) for i in (2, 0, 1)], submit,
            RunPolicy(max_attempts=2, base_backoff_s=0.0),
            max_workers=1, tracker=_Tracker(calls),
        )
        # Each job is checked and reported before the next one runs; the
        # retry comes after the first attempts, as the pool orders it.
        assert calls == [
            ("run", "L0", 0), ("retry", "L0"),
            ("run", "L1", 0), ("done", "L1"),
            ("run", "L2", 0), ("done", "L2"),
            ("run", "L0", 1), ("done", "L0"),
        ]


class TestSignalGuard:
    def test_sigterm_becomes_keyboard_interrupt(self):
        previous = signal.getsignal(signal.SIGTERM)
        with pytest.raises(KeyboardInterrupt):
            with signal_guard():
                os.kill(os.getpid(), signal.SIGTERM)
                time.sleep(2.0)  # give the signal time to be delivered
        assert signal.getsignal(signal.SIGTERM) == previous

    def test_handler_restored_on_clean_exit(self):
        previous = signal.getsignal(signal.SIGTERM)
        with signal_guard():
            assert signal.getsignal(signal.SIGTERM) != previous
        assert signal.getsignal(signal.SIGTERM) == previous
