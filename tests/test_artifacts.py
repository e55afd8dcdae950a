"""The committed report artifacts match the digests the ledger pins.

``benchmarks/ledger/golden.json`` pins the sha256 of ``repro report
--seed 0`` at full scale and at scale 0.3.  ``EXPERIMENTS.md`` must be the
full-scale report and every report run recorded in ``BENCH_PERF.json``
the scale-0.3 one, so neither artifact can silently go stale.
``PERF_HISTORY.jsonl`` is appended by hand, so its record format is
checked line by line (docs/PERFORMANCE.md).
"""

import hashlib
import json
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = json.loads((ROOT / "benchmarks" / "ledger" / "golden.json").read_text())


def test_experiments_md_is_the_pinned_full_scale_report():
    pinned = GOLDEN["report_full_scale"]
    assert pinned["config"] == {"seed": 0, "scale": 1.0}
    digest = hashlib.sha256((ROOT / "EXPERIMENTS.md").read_bytes()).hexdigest()
    assert digest == pinned["sha256"], (
        "EXPERIMENTS.md is stale: regenerate with `repro report --seed 0`"
    )


def test_bench_perf_report_runs_are_the_pinned_report():
    pinned = GOLDEN["workloads"]["report"]
    perf = json.loads((ROOT / "BENCH_PERF.json").read_text())
    assert perf["config"]["seed"] == pinned["config"]["seed"]
    assert perf["config"]["scale"] == pinned["config"]["scale"]
    assert perf["runs"]
    for run in perf["runs"]:
        assert run["sha256"] == pinned["sha256"], (
            f"BENCH_PERF.json run {run['name']} is stale: regenerate with "
            "`python benchmarks/bench_parallel.py --seed 0 --scale 0.3`"
        )


def test_perf_history_lines_are_records():
    lines = (ROOT / "PERF_HISTORY.jsonl").read_text().splitlines()
    assert lines
    for n, line in enumerate(lines, 1):
        record = json.loads(line)
        assert isinstance(record, dict), f"line {n} is not an object"
        assert isinstance(record["label"], str), f"line {n}: label"
        values = record["values"]
        assert isinstance(values, dict) and values, f"line {n}: values"
        for name, value in values.items():
            assert type(value) in (int, float) and math.isfinite(value), (
                f"line {n}: {name} = {value!r} is not a finite number"
            )
        assert record["git_rev"] is None or isinstance(record["git_rev"], str)
        assert isinstance(record["config_hash"], str), f"line {n}: config_hash"
        assert type(record["created_unix"]) in (int, float), f"line {n}"
        assert isinstance(record["meta"], dict), f"line {n}: meta"
