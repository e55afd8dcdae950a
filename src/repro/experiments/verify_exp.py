"""E-VER — certificate verification as a first-class experiment.

Rebuilds every experiment's verify scenario
(:mod:`repro.experiments.scenarios`), replays the traces through the
engine-independent certificate checker, and tabulates the verdicts: one
row per certified trace with the number of bounds checked, skipped, and
the tightest margin observed.  The experiment fails iff any trace fails
certification — making ``repro report`` a standing regression gate for
Claim 2, Lemma 3, Corollary 4, Lemma 5 and Lemmas 10/16 across the whole
experiment zoo.
"""

from __future__ import annotations

import math

from repro.experiments.common import ExperimentResult, fmt
from repro.experiments.registry import register
from repro.experiments.scenarios import certify_experiment, scenario_ids

_HEADERS = ["experiment", "trace", "checked", "skipped", "failed", "min margin"]


@register("E-VER", "Verification: theorem certificates across every scenario")
def run(seed: int = 0, scale: float = 1.0) -> ExperimentResult:
    rows = []
    uncertified: list[str] = []
    oracle_checked = 0
    for experiment_id in scenario_ids():
        for report in certify_experiment(experiment_id, seed=seed, scale=scale):
            margins = [
                check.margin
                for check in report.checks
                if check.passed is not None and check.margin is not None
            ]
            skipped = sum(1 for check in report.checks if check.skipped)
            failed = len(report.failures)
            oracle_checked += sum(
                1 for check in report.checks if check.name == "oracle-ratio"
            )
            rows.append(
                [
                    experiment_id,
                    report.label,
                    str(report.checked_count),
                    str(skipped),
                    str(failed),
                    fmt(min(margins)) if margins else "-",
                ]
            )
            if not report.certified:
                uncertified.append(report.label)
    result = ExperimentResult(
        experiment_id="E-VER",
        title="Verification — certificate checker across the experiment zoo",
        headers=_HEADERS,
        rows=rows,
    )
    result.check(
        "all traces certified",
        not uncertified,
        f"{len(rows)} traces replayed through the independent checker"
        if not uncertified
        else f"uncertified: {', '.join(uncertified)}",
    )
    result.check(
        "oracle ratios within theorem envelopes",
        oracle_checked >= 2 and not uncertified,
        f"{oracle_checked} DP-oracle competitive-ratio checks ran "
        "(Theorems 6 and 7)",
    )
    result.notes.append(
        "The checker re-derives queue/delay/utilization/overflow/change "
        "series from raw trace arrays with no imports from repro.core — "
        "a genuine second implementation (see docs/VERIFICATION.md)."
    )
    return result
