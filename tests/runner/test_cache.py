"""Content-cache tests: keying, round-trips, workload identity, maintenance."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.experiments.common import Check, ExperimentResult
from repro.obs import telemetry_session
from repro.params import OfflineConstraints
from repro.runner.cache import (
    QUARANTINE_DIR,
    ContentCache,
    cached_feasible_stream,
    cached_multi_feasible,
    get_cache,
    use_cache,
)
from repro.traffic.feasible import generate_feasible_stream
from repro.traffic.multi import generate_multi_feasible


@pytest.fixture
def cache(tmp_path):
    installed = use_cache(tmp_path / "cache")
    yield installed
    use_cache(None)


def _offline():
    return OfflineConstraints(bandwidth=64.0, delay=8, utilization=0.25, window=16)


class TestKeying:
    def test_same_config_same_key(self):
        config = {"a": 1, "b": [2, 3]}
        assert ContentCache.key("x", config) == ContentCache.key("x", config)

    def test_key_order_insensitive(self):
        assert ContentCache.key("x", {"a": 1, "b": 2}) == ContentCache.key(
            "x", {"b": 2, "a": 1}
        )

    def test_any_input_changes_key(self):
        base = ContentCache.key("x", {"a": 1})
        assert ContentCache.key("x", {"a": 2}) != base
        assert ContentCache.key("y", {"a": 1}) != base


class TestJsonEntries:
    def test_round_trip(self, cache):
        cache.store_json("results", "k1", {"rows": [["1", "2"]], "f": 0.1})
        assert cache.load_json("results", "k1") == {"rows": [["1", "2"]], "f": 0.1}

    def test_missing_is_none(self, cache):
        assert cache.load_json("results", "nope") is None

    def test_corrupt_is_none(self, cache):
        cache.store_json("shards", "k", {"x": 1})
        path = cache.root / "shards" / "k.json"
        path.write_text("{not json")
        assert cache.load_json("shards", "k") is None

    def test_experiment_result_exact_round_trip(self, cache):
        result = ExperimentResult(
            experiment_id="E-X",
            title="t",
            headers=["a"],
            rows=[["0.50"]],
            checks=[Check(name="c", passed=True, detail="d")],
            notes=["n"],
        )
        cache.store_json("results", "r", result.as_dict())
        restored = ExperimentResult.from_dict(cache.load_json("results", "r"))
        assert restored.to_markdown() == result.to_markdown()
        assert restored.render() == result.render()


class TestArrayEntries:
    def test_bitwise_round_trip(self, cache):
        arrays = {"arrivals": np.random.default_rng(0).uniform(size=100)}
        cache.store_arrays("k", arrays)
        loaded = cache.load_arrays("k")
        np.testing.assert_array_equal(loaded["arrivals"], arrays["arrivals"])
        assert loaded["arrivals"].dtype == arrays["arrivals"].dtype

    def test_missing_is_none(self, cache):
        assert cache.load_arrays("nope") is None


class TestCachedGenerators:
    def test_warm_stream_bitwise_identical(self, cache):
        cold = cached_feasible_stream(_offline(), 800, segments=3, seed=5)
        warm = cached_feasible_stream(_offline(), 800, segments=3, seed=5)
        np.testing.assert_array_equal(cold.arrivals, warm.arrivals)
        np.testing.assert_array_equal(cold.profile, warm.profile)
        assert (cache.root / "workloads").is_dir()

    def test_matches_uncached_generator(self, cache):
        cached = cached_feasible_stream(_offline(), 800, segments=3, seed=5)
        direct = generate_feasible_stream(_offline(), 800, segments=3, seed=5)
        np.testing.assert_array_equal(cached.arrivals, direct.arrivals)
        np.testing.assert_array_equal(cached.profile, direct.profile)

    def test_warm_multi_bitwise_identical(self, cache):
        kwargs = dict(
            k=3, offline_bandwidth=48.0, offline_delay=8, horizon=600, seed=2
        )
        cold = cached_multi_feasible(**kwargs)
        warm = cached_multi_feasible(**kwargs)
        np.testing.assert_array_equal(cold.arrivals, warm.arrivals)
        np.testing.assert_array_equal(cold.profiles, warm.profiles)
        direct = generate_multi_feasible(**kwargs)
        np.testing.assert_array_equal(warm.arrivals, direct.arrivals)

    def test_rng_seed_bypasses_cache(self, cache):
        rng = np.random.default_rng(3)
        cached_feasible_stream(_offline(), 800, segments=3, seed=rng)
        assert cache.info()["sections"]["workloads"]["entries"] == 0

    def test_no_cache_still_generates(self):
        use_cache(None)
        stream = cached_feasible_stream(_offline(), 800, segments=3, seed=5)
        assert stream.horizon == 800

    def test_key_is_the_bound_arguments_with_defaults(self, cache):
        cached_feasible_stream(_offline(), 800, 3, 5)
        cached_feasible_stream(_offline(), 800, segments=3, seed=5, burstiness="smooth")
        assert cache.info()["sections"]["workloads"]["entries"] == 1
        cached_feasible_stream(_offline(), 800, segments=3, seed=5, burstiness="blocks")
        assert cache.info()["sections"]["workloads"]["entries"] == 2

    def test_generators_behind_plain_wrappers(self, cache, monkeypatch):
        """A tracer that swaps in ``(*args, **kwargs)`` wrappers keeps the keys."""
        import repro.runner.cache as module

        for name in ("generate_feasible_stream", "generate_multi_feasible"):
            original = getattr(module, name)
            monkeypatch.setattr(
                module, name, lambda *args, _f=original, **kwargs: _f(*args, **kwargs)
            )
        cached_feasible_stream(_offline(), 800, segments=3, seed=5)
        cached_multi_feasible(2, 48.0, 8, 600, seed=2)
        assert cache.info()["sections"]["workloads"]["entries"] == 2

    def test_warm_multi_keeps_the_generator_types(self, cache):
        kwargs = dict(k=2, offline_bandwidth=48, offline_delay=8, horizon=600, seed=2)
        cached_multi_feasible(**kwargs)
        warm = cached_multi_feasible(**kwargs)
        assert type(warm.offline_bandwidth) is float
        assert warm.offline_bandwidth == 48.0

    @pytest.mark.parametrize("segments", [0, -1])
    def test_multi_rejects_fewer_than_one_segment(self, cache, segments):
        for active in (cache, None):
            use_cache(active)
            with pytest.raises(ConfigError, match="segments must be >= 1"):
                cached_multi_feasible(2, 16.0, 4, 200, segments=segments, seed=1)


class TestIntegrity:
    """Corrupt entries are distinguished from absent ones, quarantined
    (never silently overwritten), counted, and sweepable via verify()."""

    def test_corrupt_json_is_quarantined_not_left_in_place(self, cache):
        cache.store_json("shards", "k", {"x": 1})
        path = cache.root / "shards" / "k.json"
        path.write_text("{not json")
        assert cache.load_json("shards", "k") is None
        assert not path.exists()
        quarantined = list((cache.root / QUARANTINE_DIR).iterdir())
        assert [p.name for p in quarantined] == ["shards__k.json"]

    def test_digest_mismatch_is_corrupt(self, cache):
        cache.store_json("results", "k", {"x": 1})
        path = cache.root / "results" / "k.json"
        # Valid JSON, valid shape — but the value was flipped.
        path.write_text(
            path.read_text().replace('"x": 1', '"x": 2').replace('"x":1', '"x":2')
        )
        assert cache.load_json("results", "k") is None
        assert (cache.root / QUARANTINE_DIR / "results__k.json").exists()

    def test_corrupt_loads_are_counted(self, cache):
        cache.store_json("shards", "k", {"x": 1})
        (cache.root / "shards" / "k.json").write_text("junk")
        with telemetry_session() as tele:
            assert cache.load_json("shards", "k") is None
        counters = tele.registry.snapshot()["counters"]
        assert counters.get("runner.cache.corrupt", 0) == 1
        assert counters.get("runner.cache.quarantined", 0) == 1

    def test_absent_is_not_counted_as_corrupt(self, cache):
        with telemetry_session() as tele:
            assert cache.load_json("shards", "nope") is None
        assert tele.registry.snapshot()["counters"].get(
            "runner.cache.corrupt", 0
        ) == 0

    def test_npz_sidecar_written_and_verified(self, cache):
        cache.store_arrays("k", {"x": np.zeros(4)})
        path = cache.root / "workloads" / "k.npz"
        assert (cache.root / "workloads" / "k.npz.sha256").exists()
        assert cache.load_arrays("k") is not None
        # Flip a byte: the sidecar digest no longer matches.
        data = path.read_bytes()
        path.write_bytes(data[:-1] + bytes([data[-1] ^ 0xFF]))
        assert cache.load_arrays("k") is None
        assert not path.exists()
        names = {p.name for p in (cache.root / QUARANTINE_DIR).iterdir()}
        assert names == {"workloads__k.npz", "workloads__k.npz.sha256"}

    def test_npz_missing_sidecar_is_corrupt(self, cache):
        cache.store_arrays("k", {"x": np.zeros(4)})
        (cache.root / "workloads" / "k.npz.sha256").unlink()
        assert cache.load_arrays("k") is None
        assert not (cache.root / "workloads" / "k.npz").exists()

    def test_verify_sweeps_every_section(self, cache):
        cache.store_json("results", "good", {"x": 1})
        cache.store_json("shards", "bad", {"x": 1})
        cache.store_arrays("w", {"x": np.zeros(4)})
        (cache.root / "shards" / "bad.json").write_text("junk")
        verdict = cache.verify()
        assert verdict["checked"] == 3
        assert verdict["ok"] == 2
        assert verdict["corrupt"] == 1
        assert verdict["quarantined"] == ["shards/bad.json"]
        assert (cache.root / QUARANTINE_DIR / "shards__bad.json").exists()
        # A second sweep is clean.
        assert cache.verify()["corrupt"] == 0

    def test_verify_without_quarantine_leaves_files(self, cache):
        cache.store_json("shards", "bad", {"x": 1})
        (cache.root / "shards" / "bad.json").write_text("junk")
        verdict = cache.verify(quarantine=False)
        assert verdict["corrupt"] == 1
        assert verdict["quarantined"] == []
        assert (cache.root / "shards" / "bad.json").exists()

    def test_quarantine_shows_up_in_info(self, cache):
        cache.store_json("shards", "bad", {"x": 1})
        (cache.root / "shards" / "bad.json").write_text("junk")
        cache.load_json("shards", "bad")
        info = cache.info()
        assert info["sections"][QUARANTINE_DIR]["entries"] == 1


class TestMaintenance:
    def test_info_counts(self, cache):
        cache.store_json("results", "a", {})
        cache.store_json("shards", "b", {})
        cache.store_arrays("c", {"x": np.zeros(4)})
        info = cache.info()
        assert info["sections"]["results"]["entries"] == 1
        assert info["sections"]["shards"]["entries"] == 1
        assert info["sections"]["workloads"]["entries"] == 1
        assert info["sections"]["workloads"]["bytes"] > 0

    def test_clear(self, cache):
        cache.store_json("results", "a", {})
        cache.store_arrays("c", {"x": np.zeros(4)})
        assert cache.clear() == 2
        assert cache.info()["sections"]["results"]["entries"] == 0
        assert cache.load_json("results", "a") is None

    def test_env_var_activation(self, tmp_path, monkeypatch):
        use_cache(None)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
        import repro.runner.cache as cache_mod

        cache_mod._CONFIGURED = False
        try:
            active = get_cache()
            assert active is not None
            assert active.root == tmp_path / "envcache"
        finally:
            use_cache(None)
