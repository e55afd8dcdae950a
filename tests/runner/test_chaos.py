"""Chaos-harness acceptance tests: a chaotic batch merges byte-identical.

The bar set by the issue: with a seeded :class:`ChaosPlan` making workers
exit hard, hang past the deadline, raise, and tamper payloads,
``run_batch`` must still complete with merged results byte-identical to
the fault-free baseline, a populated retry/quarantine report, and nonzero
recovery counters — and an interrupted sweep must resume from its journal
re-executing only the unfinished shards.

Chaos decisions are pure functions of ``(seed, label, attempt)``, so each
test pins a seed whose decision table is asserted as a precondition —
no flaky randomness, the same faults every run.
"""

import os
import signal

import pytest

from repro.errors import ResilienceError
from repro.obs import telemetry_session
from repro.runner import ChaosPlan, RunPolicy, SweepJournal, run_batch, use_cache
from repro.runner import resilience
from repro.runner.batch import _shard_key

IDS = ["E-T6", "E-T14", "E-F2"]
SCALE = 0.3
SEED = 7
# Shard labels for IDS at this scale: E-T6 fans to 3 points, E-T14 to 2,
# E-F2 runs monolithic.
LABELS = ["E-T6[0]", "E-T6[1]", "E-T6[2]", "E-T14[0]", "E-T14[1]", "E-F2"]

FAST = dict(base_backoff_s=0.01, max_backoff_s=0.05)


@pytest.fixture(autouse=True)
def no_ambient_cache():
    use_cache(None)
    yield
    use_cache(None)


def _render(report):
    return "\n\n".join(result.to_markdown() for result in report.results)


@pytest.fixture(scope="module")
def baseline():
    use_cache(None)
    return _render(run_batch(IDS, seed=SEED, scale=SCALE, jobs=1))


class TestChaosDeterminism:
    def test_kill_raise_tamper_merge_byte_identical(self, baseline):
        # Seed 1 decision table (asserted below): a worker kill, a raised
        # ChaosError, and several tampered payloads across retries.
        chaos = ChaosPlan(
            kill_p=0.15, raise_p=0.2, tamper_p=0.15, seed=1, max_faults=2
        )
        assert chaos.decide("E-T6[1]", 0) == "kill"
        assert chaos.decide("E-T6[2]", 0) == "raise"
        assert chaos.decide("E-T6[2]", 1) == "tamper"
        with telemetry_session() as tele:
            report = run_batch(
                IDS, seed=SEED, scale=SCALE, jobs=2, chaos=chaos,
                policy=RunPolicy(max_attempts=6, **FAST),
            )
        assert _render(report) == baseline
        assert report.failed == []
        assert report.ok
        # The recovery machinery demonstrably fired, in the report...
        assert report.crashes >= 1
        assert report.corrupt_payloads >= 1
        assert report.retries >= 2
        assert report.pool_rebuilds >= 1
        # ...and in the telemetry counters.
        counters = tele.registry.snapshot()["counters"]
        assert counters.get("runner.resilience.retries", 0) >= 2
        assert counters.get("runner.resilience.crashes", 0) >= 1
        assert counters.get("runner.resilience.corrupt_payloads", 0) >= 1
        assert counters.get("runner.resilience.pool_rebuilds", 0) >= 1

    def test_hang_trips_deadline_and_recovers(self, baseline):
        chaos = ChaosPlan(hang_p=1.0, seed=0, max_faults=1, hang_s=30.0)
        report = run_batch(
            ["E-F2"], seed=SEED, scale=SCALE, jobs=2, chaos=chaos,
            policy=RunPolicy(max_attempts=3, run_timeout=2.0, **FAST),
        )
        assert report.failed == []
        assert report.timeouts >= 1
        assert report.pool_rebuilds >= 1
        only_f2 = [
            part for part in baseline.split("\n\n") if "E-F2" in part
        ]
        assert _render(report).split("\n\n")[0] == only_f2[0]

    def test_inline_chaos_retries_match_clean_run(self, baseline):
        chaos = ChaosPlan(raise_p=1.0, seed=0, max_faults=1)
        report = run_batch(
            IDS, seed=SEED, scale=SCALE, jobs=1, chaos=chaos,
            policy=RunPolicy(max_attempts=3, **FAST),
        )
        assert _render(report) == baseline
        assert report.failed == []
        assert report.retries == len(IDS)  # each experiment retried once

    @pytest.mark.parametrize("action", ["kill_p", "hang_p"])
    def test_inline_kill_and_hang_retry_once(self, baseline, action):
        # In-process, kill and hang cannot touch the caller: both raise.
        chaos = ChaosPlan(**{action: 1.0}, seed=0, max_faults=1)
        report = run_batch(
            IDS, seed=SEED, scale=SCALE, jobs=1, chaos=chaos,
            policy=RunPolicy(max_attempts=3, **FAST),
        )
        assert _render(report) == baseline
        assert report.failed == []
        assert report.retries == len(IDS)  # each experiment retried once
        assert report.crashes == report.timeouts == report.pool_rebuilds == 0


class TestQuarantine:
    PERMANENT = ChaosPlan(raise_p=1.0, seed=0, max_faults=10**6)

    def test_keep_going_quarantines_and_reports(self):
        with telemetry_session() as tele:
            report = run_batch(
                ["E-F2"], seed=SEED, scale=SCALE, jobs=2,
                chaos=self.PERMANENT,
                policy=RunPolicy(max_attempts=2, **FAST),
            )
        assert report.results == []
        assert not report.ok
        assert len(report.failed) == 1
        assert report.failed[0].experiment_id == "E-F2"
        assert report.failed[0].attempts == 2
        assert "ChaosError" in report.failed[0].error
        assert any("incomplete" in note for note in report.notes)
        counters = tele.registry.snapshot()["counters"]
        assert counters.get("runner.resilience.quarantined", 0) >= 1

    def test_partial_results_survive_a_failing_sibling(self):
        # Only E-F2's label draws chaos; the sweeps must still assemble.
        chaos = ChaosPlan(raise_p=1.0, seed=0, max_faults=10**6)
        report = run_batch(
            IDS, seed=SEED, scale=SCALE, jobs=2, chaos=chaos,
            policy=RunPolicy(max_attempts=2, **FAST),
        )
        # Every shard label draws "raise", so everything fails here —
        # keep-going still returns a well-formed (empty) report.
        assert not report.ok
        assert len(report.failed) == len(LABELS)

    def test_strict_mode_raises(self):
        with pytest.raises(ResilienceError):
            run_batch(
                ["E-F2"], seed=SEED, scale=SCALE, jobs=2,
                chaos=self.PERMANENT,
                policy=RunPolicy(max_attempts=2, strict=True, **FAST),
            )


class TestInterruptAndResume:
    """Satellite: SIGTERM mid-sweep -> journal flushed, no leaked workers,
    resume completes the remaining shards exactly once."""

    def test_sigterm_flushes_journal_then_resume_completes(
        self, tmp_path, baseline
    ):
        journal_path = tmp_path / "sweep.jsonl"
        # Seed 0: E-T6[0] and E-T6[1] run clean, three shards hang — so at
        # least one shard completes (journaled) and several never do.
        chaos = ChaosPlan(hang_p=0.6, seed=0, max_faults=1, hang_s=20.0)
        hangs = [lab for lab in LABELS if chaos.decide(lab, 0) == "hang"]
        assert chaos.decide("E-T6[0]", 0) == "none"
        assert len(hangs) == 3

        fired = []

        def sigterm_once(event):
            if (
                event.kind == "job"
                and event.completed < event.total
                and not fired
            ):
                fired.append(event.label)
                os.kill(os.getpid(), signal.SIGTERM)

        resilience._LAST_POOL_PIDS.clear()
        with pytest.raises(KeyboardInterrupt):
            run_batch(
                IDS, seed=SEED, scale=SCALE, jobs=2, chaos=chaos,
                policy=RunPolicy(max_attempts=2, **FAST),
                journal=journal_path, progress=sigterm_once,
            )
        assert fired, "the interrupt must have come from a progress event"

        # The journal was flushed before unwinding: at least the shard
        # that triggered the interrupt is checkpointed, and the hung
        # shards are not.
        interrupted = SweepJournal(journal_path)
        assert 0 < len(interrupted) < len(LABELS)

        # No worker survived the teardown.
        pids = resilience.last_worker_pids()
        assert pids, "the batch must have started workers"
        for pid in pids:
            with pytest.raises(OSError):
                os.kill(pid, 0)

        # Resume with the same journal and no chaos: only the unfinished
        # shards are re-executed, and the merged report is byte-identical.
        resumed = run_batch(
            IDS, seed=SEED, scale=SCALE, jobs=2,
            policy=RunPolicy(max_attempts=2, **FAST),
            journal=journal_path,
        )
        assert _render(resumed) == baseline
        assert resumed.journal_skips == len(interrupted)
        # Exactly once: every shard key appears once in the final journal
        # (the monolithic E-F2 run is journaled under its result key).
        final = SweepJournal(journal_path)
        assert len(final) == len(LABELS)
        spec_points = {
            "E-T6": 3,
            "E-T14": 2,
        }
        from repro.experiments import registry

        for experiment_id, expected in spec_points.items():
            spec = registry.sweep_spec(experiment_id)
            points = spec.points(SEED, SCALE)
            assert len(points) == expected
            for index, point in enumerate(points):
                key = _shard_key(experiment_id, point, index, SEED, SCALE)
                assert key in final

    def test_resume_skips_everything_on_a_complete_journal(
        self, tmp_path, baseline
    ):
        journal_path = tmp_path / "sweep.jsonl"
        first = run_batch(
            IDS, seed=SEED, scale=SCALE, jobs=2, journal=journal_path
        )
        assert first.journal_skips == 0
        second = run_batch(
            IDS, seed=SEED, scale=SCALE, jobs=2, journal=journal_path
        )
        assert _render(second) == baseline
        assert second.journal_skips == len(LABELS)
        assert second.retries == second.crashes == 0


class TestResumeAcrossJobs:
    """A journal resumes at any ``jobs``, whichever granularity wrote it:
    a ``jobs > 1`` run journals sweep shards, a ``jobs == 1`` run whole
    results."""

    RESUME_IDS = ["E-T6", "E-F2"]

    @pytest.mark.parametrize("written, resumed", [(2, 1), (1, 2)])
    def test_complete_journal_skips_every_experiment(
        self, tmp_path, monkeypatch, written, resumed
    ):
        from repro.experiments import registry

        path = tmp_path / "sweep.jsonl"
        fresh = run_batch(
            self.RESUME_IDS, seed=3, scale=0.1, jobs=written, journal=path
        )
        entries = len(SweepJournal(path))
        assert entries == (4 if written > 1 else 2)  # E-T6 has 3 points

        calls = []

        def forbid(name):
            def call(*args, **kwargs):
                calls.append(name)
                raise AssertionError(f"registry.{name} ran on a full journal")

            return call

        # Forked pool workers inherit the patch, so a planned job fails.
        monkeypatch.setattr(registry, "run", forbid("run"))
        monkeypatch.setattr(registry, "run_point", forbid("run_point"))
        report = run_batch(
            self.RESUME_IDS, seed=3, scale=0.1, jobs=resumed, journal=path,
            policy=RunPolicy(max_attempts=1),
        )
        assert calls == []
        assert report.failed == []
        assert report.journal_skips == entries
        assert _render(report) == _render(fresh)
