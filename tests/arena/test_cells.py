"""Arena cells: deterministic payloads, stalled shape, key sensitivity."""

import pytest

from repro.arena import Cell, cell_point, run_cell
from repro.errors import ConfigError
from repro.runner.batch import _shard_key
from repro.runner.cache import payload_digest


def _key(cell, *, k, horizon, seed, scale):
    """The cache key of a tournament cell at grid index 0: an E-ARENA point."""
    return _shard_key("E-ARENA", cell_point(cell, k=k, horizon=horizon), 0, seed, scale)


class TestCellIdentity:
    def test_name_encodes_all_axes(self):
        assert Cell("max-min", "smooth", 0.4).name == "max-min/smooth/f0.4"
        assert Cell("max-min", "smooth", 0.0).name == "max-min/smooth/f0"

    def test_config_distinguishes_every_axis(self):
        base = Cell("max-min", "smooth", 0.0)
        variants = [
            Cell("priority-tier", "smooth", 0.0),
            Cell("max-min", "uniform", 0.0),
            Cell("max-min", "smooth", 0.4),
        ]
        base_key = _key(base, k=4, horizon=128, seed=0, scale=1.0)
        for other in variants:
            assert _key(other, k=4, horizon=128, seed=0, scale=1.0) != base_key
        for kwargs in (
            dict(k=3, horizon=128, seed=0, scale=1.0),
            dict(k=4, horizon=256, seed=0, scale=1.0),
            dict(k=4, horizon=128, seed=1, scale=1.0),
            dict(k=4, horizon=128, seed=0, scale=0.5),
        ):
            assert _key(base, **kwargs) != base_key

    def test_cache_key_separates_cells(self):
        cell = Cell("max-min", "smooth", 0.0)
        point = cell_point(cell, k=4, horizon=128)
        assert point == "max-min|smooth|0.0|4|128"
        key = _key(cell, k=4, horizon=128, seed=0, scale=1.0)
        assert key == _shard_key("E-ARENA", point, 0, 0, 1.0)
        other = Cell("max-min", "uniform", 0.0)
        assert _key(other, k=4, horizon=128, seed=0, scale=1.0) != key

    def test_point_round_trips_an_exact_fault(self):
        # The point carries str(fault), so an intensity with more digits
        # than a cell name shows still reaches run_cell exactly.
        cell = Cell("max-min", "smooth", 0.123456789)
        assert float(cell_point(cell, k=4, horizon=128).split("|")[2]) == cell.fault


class TestRunCell:
    def test_deterministic_payload(self):
        cell = Cell("max-min", "uniform", 0.0)
        first = run_cell(cell, k=4, horizon=128, seed=3, scale=1.0)
        second = run_cell(cell, k=4, horizon=128, seed=3, scale=1.0)
        assert payload_digest(first) == payload_digest(second)

    def test_payload_shape(self):
        payload = run_cell(Cell("max-min", "smooth", 0.0), k=4, horizon=128, seed=0, scale=1.0)
        assert payload["stalled"] is False
        assert payload["policy"] == "max-min"
        assert payload["changes"] >= 0
        assert 0.0 <= payload["delivered_fraction"] <= 1.0 + 1e-9
        assert payload["ratio"]["kind"] in {
            "finite",
            "trivial",
            "unbounded",
            "no-statement",
        }
        assert payload["fairness_certified"] is True

    def test_fault_cells_skip_fairness_certificates(self):
        payload = run_cell(Cell("max-min", "smooth", 0.4), k=4, horizon=128, seed=0, scale=1.0)
        assert payload["fairness_certified"] is None

    def test_stalled_cell_reports_instead_of_raising(self):
        # phased + heavy faults is the known starvation case: the payload
        # degrades to a stalled record, never an exception.
        payload = run_cell(Cell("phased", "smooth", 0.4), k=4, horizon=256, seed=0, scale=1.0)
        assert payload["stalled"] is True
        assert payload["ratio"]["kind"] == "no-statement"
        assert payload["max_delay"] == -1

    def test_unknown_axes_rejected(self):
        with pytest.raises(ConfigError):
            run_cell(Cell("nope", "smooth", 0.0), k=4, horizon=128, seed=0, scale=1.0)
        with pytest.raises(ConfigError):
            run_cell(Cell("max-min", "nope", 0.0), k=4, horizon=128, seed=0, scale=1.0)
