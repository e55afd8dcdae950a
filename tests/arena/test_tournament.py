"""Tournament determinism: jobs, cache temperature, and resume history
must all be invisible in the scorecard bytes."""

import pytest

import repro.arena.cells as arena_cells
from repro.arena import TournamentConfig, run_tournament, scorecard_json
from repro.errors import ConfigError
from repro.obs.progress import ProgressTracker
from repro.runner import (
    ContentCache,
    RunPolicy,
    SweepJournal,
    get_cache,
    run_batch,
    use_cache,
)
from tests.references import CollectingProgress

_SMALL = dict(
    policies=("max-min", "equal-split"),
    traffic=("uniform",),
    faults=(0.0, 0.4),
    k=4,
    horizon=128,
    seed=7,
)


class TestConfigValidation:
    def test_rejects_empty_axes(self):
        with pytest.raises(ConfigError, match="non-empty"):
            TournamentConfig(policies=())

    def test_rejects_unknown_names(self):
        with pytest.raises(ConfigError, match="policies"):
            TournamentConfig(policies=("nope",))
        with pytest.raises(ConfigError, match="traffic"):
            TournamentConfig(traffic=("nope",))

    def test_rejects_small_horizon_and_k(self):
        with pytest.raises(ConfigError, match="horizon"):
            TournamentConfig(horizon=16)
        with pytest.raises(ConfigError, match="k must"):
            TournamentConfig(k=1)

    def test_cells_are_policy_major(self):
        config = TournamentConfig(**_SMALL)
        names = [c.name for c in config.cells()]
        assert names == [
            "max-min/uniform/f0",
            "max-min/uniform/f0.4",
            "equal-split/uniform/f0",
            "equal-split/uniform/f0.4",
        ]


class TestDeterminism:
    def test_jobs_do_not_change_the_bytes(self):
        serial = run_tournament(TournamentConfig(**_SMALL, jobs=1))
        pooled = run_tournament(TournamentConfig(**_SMALL, jobs=4))
        assert serial.ok and pooled.ok
        assert scorecard_json(serial.scorecard) == scorecard_json(pooled.scorecard)

    def test_cache_temperature_does_not_change_the_bytes(self, tmp_path):
        cache = ContentCache(tmp_path)
        config = TournamentConfig(**_SMALL)
        cold = run_tournament(config, cache=cache)
        warm = run_tournament(config, cache=cache)
        assert cold.computed == 4 and cold.from_cache == 0
        assert warm.computed == 0 and warm.from_cache == 4
        assert scorecard_json(cold.scorecard) == scorecard_json(warm.scorecard)

    def test_journal_resume_does_not_change_the_bytes(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        config = TournamentConfig(**_SMALL)
        journal = SweepJournal(path)
        try:
            fresh = run_tournament(config, journal=journal)
        finally:
            journal.close()
        journal = SweepJournal(path)
        try:
            resumed = run_tournament(config, journal=journal)
        finally:
            journal.close()
        assert fresh.computed == 4 and fresh.from_journal == 0
        assert resumed.computed == 0 and resumed.from_journal == 4
        assert scorecard_json(fresh.scorecard) == scorecard_json(resumed.scorecard)

    def test_config_changes_invalidate_cache_keys(self, tmp_path):
        cache = ContentCache(tmp_path)
        run_tournament(TournamentConfig(**_SMALL), cache=cache)
        reseeded = run_tournament(
            TournamentConfig(**{**_SMALL, "seed": 8}), cache=cache
        )
        assert reseeded.computed == 4 and reseeded.from_cache == 0


class TestReport:
    def test_every_cell_row_carries_a_digest(self):
        report = run_tournament(TournamentConfig(**_SMALL))
        assert report.ok
        for row in report.scorecard["cells"]:
            assert len(row["digest"]) == 64

    def test_ranking_covers_every_policy(self):
        report = run_tournament(TournamentConfig(**_SMALL))
        ranked = {entry["policy"] for entry in report.scorecard["ranking"]}
        assert ranked == {"max-min", "equal-split"}


# Eight cells: two policies x two traffic models x two fault levels.
_EIGHT = dict(
    policies=("max-min", "priority-tier"),
    traffic=("smooth", "uniform"),
    faults=(0.0, 0.4),
    horizon=128,
)


def _tracked(config, **kwargs):
    """Run with a tracker the way ``repro arena`` does; return the last event."""
    sink = CollectingProgress()
    tracker = ProgressTracker(len(config.cells()), sink)
    tracker.start()
    try:
        report = run_tournament(config, tracker=tracker, **kwargs)
    finally:
        tracker.finish()
    return report, sink.events[-1]


class TestProgressAndRetries:
    def test_warm_and_resumed_runs_report_every_cell(self, tmp_path):
        config = TournamentConfig(**_EIGHT)
        cache = ContentCache(tmp_path / "cache")
        with SweepJournal(tmp_path / "journal.jsonl") as journal:
            run_tournament(config, cache=cache, journal=journal)

        warm, done = _tracked(config, cache=cache)
        assert warm.from_cache == 8
        assert done.completed == done.total == 8
        assert done.cache_hits == 8

        with SweepJournal(tmp_path / "journal.jsonl") as journal:
            resumed, done = _tracked(config, journal=journal)
        assert resumed.from_journal == 8
        assert done.completed == done.total == 8
        assert done.cache_hits == 8

    def test_one_job_retries_a_failing_cell(self, monkeypatch):
        config = TournamentConfig(
            **_EIGHT, run_policy=RunPolicy(max_attempts=2, base_backoff_s=0.0)
        )
        clean = run_tournament(config)
        real = arena_cells.run_cell
        failures = []

        def first_attempt_raises(cell, **kwargs):
            if cell.name == "max-min/uniform/f0.4" and not failures:
                failures.append(cell.name)
                raise RuntimeError("first attempt fails")
            return real(cell, **kwargs)

        monkeypatch.setattr(arena_cells, "run_cell", first_attempt_raises)
        report, done = _tracked(config)
        assert failures == ["max-min/uniform/f0.4"]
        assert report.ok and report.computed == 8
        assert done.retries == 1
        assert done.completed == done.total == 8
        assert scorecard_json(report.scorecard) == scorecard_json(clean.scorecard)


class TestOneExecutor:
    def test_a_warm_report_cache_serves_the_tournament(self, tmp_path):
        # E-ARENA's scale-0.3 grid, run point by point by the batch
        # runner, is the same set of sweep points as this tournament.
        cache = ContentCache(tmp_path)
        previous = get_cache()
        use_cache(cache)
        try:
            batch = run_batch(["E-ARENA"], scale=0.3, jobs=2)
        finally:
            use_cache(previous)
        assert batch.ok and batch.shard_jobs == 12
        config = TournamentConfig(
            policies=("phased", "max-min", "priority-tier"),
            traffic=("smooth", "uniform"),
            faults=(0.0, 0.4),
            k=4,
            horizon=128,
            seed=0,
            scale=0.3,
        )
        warm = run_tournament(config, cache=cache)
        cold = run_tournament(config)
        assert warm.computed == 0 and warm.from_cache == 12
        assert cold.computed == 12
        assert scorecard_json(warm.scorecard) == scorecard_json(cold.scorecard)
