"""Batch-runner tests: determinism across jobs and cache states, telemetry
merging, and the report CLI end-to-end.

The acceptance bar: ``repro report`` output is byte-identical for every
``--jobs`` value and for cold vs warm caches.
"""

import io

import numpy as np
import pytest

from repro.cli import main
from repro.errors import ExperimentError
from repro.obs import telemetry_session
from repro.obs.live import serve_session
from repro.obs.registry import MetricsRegistry, NullRegistry
from repro.runner import run_batch, use_cache

# A mix that covers both job shapes: E-T6/E-T14 shard (sweep points fan
# out per worker), E-F2 runs monolithic.
IDS = ["E-T6", "E-T14", "E-F2"]
SCALE = 0.3


@pytest.fixture(autouse=True)
def no_ambient_cache():
    use_cache(None)
    yield
    use_cache(None)


def _render(report):
    return "\n\n".join(result.to_markdown() for result in report.results)


class TestJobsDeterminism:
    def test_parallel_matches_inline(self):
        inline = run_batch(IDS, seed=7, scale=SCALE, jobs=1)
        parallel = run_batch(IDS, seed=7, scale=SCALE, jobs=4)
        assert _render(inline) == _render(parallel)
        assert parallel.shard_jobs > 0, "sweeps should have sharded"

    def test_results_in_request_order(self):
        report = run_batch(["E-T14", "E-F2", "E-T6"], seed=0, scale=SCALE, jobs=2)
        assert [r.experiment_id for r in report.results] == [
            "E-T14", "E-F2", "E-T6",
        ]

    def test_jobs_zero_means_auto(self):
        report = run_batch(["E-F2"], seed=0, scale=SCALE, jobs=0)
        assert report.jobs >= 1

    def test_negative_jobs_rejected(self):
        with pytest.raises(ExperimentError, match="jobs"):
            run_batch(["E-F2"], jobs=-1)

    def test_unknown_id_fails_fast(self):
        with pytest.raises(ExperimentError, match="unknown experiment"):
            run_batch(["E-NOPE"], jobs=2)


class TestCacheDeterminism:
    def test_cold_and_warm_match_uncached(self, tmp_path):
        uncached = _render(run_batch(IDS, seed=7, scale=SCALE, jobs=1))
        use_cache(tmp_path / "cache")
        cold = run_batch(IDS, seed=7, scale=SCALE, jobs=2)
        warm = run_batch(IDS, seed=7, scale=SCALE, jobs=2)
        assert _render(cold) == uncached
        assert _render(warm) == uncached
        assert warm.result_cache_hits == len(IDS)

    def test_shard_cache_reused_across_result_invalidation(self, tmp_path):
        use_cache(tmp_path / "cache")
        cold = run_batch(["E-T6"], seed=7, scale=SCALE, jobs=2)
        # Drop the finished-result entries but keep the shards: the rerun
        # must reassemble the identical result from cached points alone.
        import shutil

        shutil.rmtree(tmp_path / "cache" / "results")
        warm = run_batch(["E-T6"], seed=7, scale=SCALE, jobs=2)
        assert _render(warm) == _render(cold)
        assert warm.shard_cache_hits == warm.shard_jobs > 0

    def test_seed_is_part_of_the_key(self, tmp_path):
        use_cache(tmp_path / "cache")
        first = run_batch(["E-F2"], seed=1, scale=SCALE, jobs=1)
        other = run_batch(["E-F2"], seed=2, scale=SCALE, jobs=1)
        assert other.result_cache_hits == 0
        assert _render(first) != _render(other)


class TestTelemetryMerge:
    def test_worker_snapshots_fold_into_parent(self):
        with telemetry_session() as tele:
            report = run_batch(["E-T6"], seed=0, scale=SCALE, jobs=2)
        assert report.worker_snapshots > 0
        counters = tele.registry.snapshot()["counters"]
        assert counters.get("engine.single.runs", 0) > 0

    def test_serve_folds_worker_snapshots(self):
        """``repro report --serve`` runs the batch inside the
        observatory's telemetry and passes no flag: the workers' counters
        still reach the registry it serves."""
        with serve_session(":0", stream=io.StringIO()) as obs:
            report = run_batch(["E-T6"], seed=0, scale=SCALE, jobs=2)
        assert report.worker_snapshots > 0
        counters = obs.registry.snapshot()["counters"]
        assert counters.get("engine.single.runs", 0) > 0

    def test_merge_snapshot_counters_add(self):
        registry = MetricsRegistry()
        registry.counter("a").inc(2.0)
        registry.merge_snapshot({"counters": {"a": 3.0, "b": 1.0}})
        assert registry.counter_value("a") == 5.0
        assert registry.counter_value("b") == 1.0

    def test_merge_snapshot_gauges_and_histograms(self):
        registry = MetricsRegistry()
        registry.gauge("g").set(5.0)
        registry.histogram("h").observe(3.0)
        other = MetricsRegistry()
        other.gauge("g").set(-1.0)
        other.histogram("h").observe(9.0)
        registry.merge_snapshot(other.snapshot())
        gauge = registry.gauge("g")
        assert gauge.min == -1.0 and gauge.max == 5.0 and gauge.updates == 2
        histogram = registry.histogram("h")
        assert histogram.count == 2
        assert histogram.total == 12.0
        assert histogram.buckets == {4.0: 1, 16.0: 1}

    def test_merge_snapshot_ignores_garbage(self):
        registry = MetricsRegistry()
        registry.merge_snapshot(None)
        registry.merge_snapshot({"counters": {"a": "not-a-number"}})
        registry.merge_snapshot({"gauges": {"g": "nope"}, "histograms": {"h": 1}})
        assert registry.snapshot()["gauges"] == {}

    def test_null_registry_merge_is_noop(self):
        NullRegistry().merge_snapshot({"counters": {"a": 1.0}})

    def test_refold_makes_gauge_values_order_independent(self):
        """Completion-order merges + a seq-order refold = deterministic.

        The pool now merges worker snapshots as shards complete (for the
        live observatory), so the only order-dependent field — a gauge's
        last value — is re-asserted in submission order afterwards.  Any
        completion order must then yield the identical final snapshot.
        """
        shards = []
        for value in (3.0, 7.0, 5.0):
            worker = MetricsRegistry()
            worker.counter("slots").inc(10.0)
            worker.gauge("depth").set(value)
            worker.histogram("lat").observe(value)
            shards.append(worker.snapshot())

        def fold(completion_order):
            registry = MetricsRegistry()
            for index in completion_order:  # merge as shards "complete"
                registry.merge_snapshot(shards[index])
            for snapshot in shards:  # refold in submission order
                registry.refold_gauge_values(snapshot)
            return registry.snapshot()

        import itertools

        baseline = fold((0, 1, 2))
        assert baseline["gauges"]["depth"]["value"] == 5.0  # last submitted
        assert baseline["counters"]["slots"] == 30.0
        for order in itertools.permutations(range(3)):
            assert fold(order) == baseline

    def test_refold_skips_untouched_gauges_and_garbage(self):
        registry = MetricsRegistry()
        registry.gauge("g").set(2.0)
        registry.refold_gauge_values(
            {"gauges": {"g": {"value": 9.0, "updates": 0}}}
        )
        assert registry.gauge("g").value == 2.0  # no updates: not refolded
        registry.refold_gauge_values(None)
        registry.refold_gauge_values({"gauges": {"g": "nope"}})
        registry.refold_gauge_values(
            {"gauges": {"g": {"value": "bad", "updates": 1}}}
        )
        assert registry.gauge("g").value == 2.0
        NullRegistry().refold_gauge_values({"gauges": {}})

    def test_parallel_batch_registry_is_deterministic(self):
        """Two identical jobs=2 batches leave identical registries."""

        def run():
            with telemetry_session() as tele:
                run_batch(["E-T6"], seed=0, scale=SCALE, jobs=2)
            return tele.registry.snapshot()

        assert run() == run()

    def test_parallel_batch_counts_match_inline(self):
        """Each worker job reports its own registry: a jobs=2 batch counts
        exactly what the inline batch counts (no cumulative snapshots)."""

        def run(jobs):
            with telemetry_session() as tele:
                run_batch(
                    ["E-T6", "E-T14"], seed=0, scale=SCALE, jobs=jobs
                )
            return tele.registry.snapshot()

        inline, parallel = run(1), run(2)
        assert parallel["counters"] == inline["counters"]
        assert set(parallel["histograms"]) == set(inline["histograms"])
        for name, histogram in inline["histograms"].items():
            assert parallel["histograms"][name]["count"] == histogram["count"]
            assert parallel["histograms"][name]["buckets"] == histogram["buckets"]

    def test_refold_histogram_totals_follows_the_given_order(self):
        shards = [
            {"histograms": {"h": {"count": 1, "total": value}}}
            for value in (1e16, 1.0, -1e16, 1.0)
        ]
        registry = MetricsRegistry()
        for shard in reversed(shards):  # completion order
            registry.merge_snapshot(shard)
        registry.refold_histogram_totals({}, shards)
        assert registry.histogram("h").total == ((1e16 + 1.0) - 1e16) + 1.0


class TestReportCli:
    """`repro report` byte-identity across --jobs and cache states."""

    def test_report_bytes_identical_jobs_1_vs_4(self, tmp_path):
        one = tmp_path / "one.md"
        four = tmp_path / "four.md"
        base = ["report", "--seed", "3", "--scale", str(SCALE)]
        assert main(base + ["--jobs", "1", "--out", str(one)]) == 0
        assert main(base + ["--jobs", "4", "--out", str(four)]) == 0
        assert one.read_bytes() == four.read_bytes()

    def test_report_bytes_identical_cold_vs_warm_cache(self, tmp_path):
        cold = tmp_path / "cold.md"
        warm = tmp_path / "warm.md"
        cache_dir = str(tmp_path / "cache")
        base = [
            "report", "--seed", "3", "--scale", str(SCALE),
            "--jobs", "2", "--cache-dir", cache_dir,
        ]
        assert main(base + ["--out", str(cold)]) == 0
        assert main(base + ["--out", str(warm)]) == 0
        assert cold.read_bytes() == warm.read_bytes()

    def test_cache_cli_info_and_clear(self, tmp_path, capsys):
        from repro.runner.cache import ContentCache

        cache_dir = str(tmp_path / "cache")
        ContentCache(cache_dir).store_json("results", "k", {"x": 1})
        ContentCache(cache_dir).store_arrays("w", {"a": np.zeros(8)})
        assert main(["cache", "info", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert '"results"' in out
        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        assert "cleared" in capsys.readouterr().out

    def test_cache_cli_without_dir_errors(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert main(["cache", "info"]) == 2


class TestBatchProgress:
    """The live progress layer: observational, complete, deterministic."""

    def _events(self, **kwargs):
        from tests.references import CollectingProgress

        sink = CollectingProgress()
        report = run_batch(IDS, seed=7, scale=SCALE, progress=sink, **kwargs)
        return report, sink.events

    def test_inline_emits_one_event_per_experiment(self):
        report, events = self._events(jobs=1)
        kinds = [event.kind for event in events]
        assert kinds[0] == "start" and kinds[-1] == "done"
        jobs = [event for event in events if event.kind == "job"]
        assert [event.label for event in jobs] == IDS
        assert events[-1].completed == events[-1].total == len(IDS)
        assert report.results

    def test_pool_counts_shards_as_jobs(self):
        report, events = self._events(jobs=2)
        done = events[-1]
        assert done.kind == "done"
        # Shards are individual jobs: total exceeds the experiment count.
        assert done.total == report.shard_jobs + 1  # E-F2 is monolithic
        assert done.completed == done.total
        labels = {event.label for event in events if event.kind == "job"}
        assert any("[0]" in label for label in labels), labels

    def test_cached_jobs_reported_as_cache_hits(self, tmp_path):
        use_cache(tmp_path / "cache")
        run_batch(IDS, seed=7, scale=SCALE, jobs=1)  # warm the cache
        report, events = self._events(jobs=1)
        assert report.result_cache_hits == len(IDS)
        assert events[-1].cache_hits == len(IDS)
        assert events[-1].completed == len(IDS)

    def test_telemetry_slots_fold_into_progress(self):
        with telemetry_session():
            report, events = self._events(jobs=2)
        assert report.worker_snapshots > 0
        assert events[-1].slots > 0

    def test_progress_does_not_change_results(self):
        from tests.references import CollectingProgress

        silent = run_batch(IDS, seed=7, scale=SCALE, jobs=2)
        watched = run_batch(
            IDS, seed=7, scale=SCALE, jobs=2, progress=CollectingProgress()
        )
        assert _render(silent) == _render(watched)

    def test_broken_sink_does_not_fail_the_batch(self):
        def explode(event):
            raise RuntimeError("sink died")

        report = run_batch(IDS, seed=7, scale=SCALE, jobs=2, progress=explode)
        assert len(report.results) == len(IDS)

    def test_report_cli_progress_jsonl(self, tmp_path, capsys):
        import json as _json

        out = tmp_path / "report.md"
        assert (
            main(
                [
                    "report", "--seed", "3", "--scale", str(SCALE),
                    "--jobs", "2", "--progress", "jsonl",
                    "--out", str(out),
                ]
            )
            == 0
        )
        captured = capsys.readouterr()
        lines = [
            line for line in captured.err.splitlines() if line.startswith("{")
        ]
        assert lines, "jsonl progress must stream to stderr"
        events = [_json.loads(line) for line in lines]
        assert events[0]["kind"] == "start"
        assert events[-1]["kind"] == "done"
        assert events[-1]["completed"] == events[-1]["total"] > 0
