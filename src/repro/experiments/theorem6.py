"""E-T6 — Theorem 6: the single-session algorithm is O(log B_A)-competitive.

Sweep the maximum bandwidth ``B_A`` over powers of two; for each point
generate certificate-backed feasible streams, run Figure 3, and report the
change counts against the OPT bracket together with the delay and
utilization guarantees.  The theorem predicts

* ``max delay <= D_A = 2·D_O``                                (Lemma 3)
* existential window utilization ``>= U_A = U_O/3``           (Lemma 5)
* changes per stage ``<= log2(B_A) + O(1)``                   (Lemma 1)
* ``changes / OPT`` growing at most like ``log2(B_A)``        (Theorem 6)

Each exponent is an independent sweep point (its own workload and policy),
so the experiment is registered shardable: the batch runner fans points out
across worker processes and assembles the table deterministically.
"""

from __future__ import annotations

from repro.analysis.competitive import bracket
from repro.analysis.fitting import growth_exponent
from repro.core.offline import stage_lower_bound
from repro.core.single_session import SingleSessionOnline
from repro.experiments.common import ExperimentResult, fmt, scaled
from repro.experiments.registry import register_sweep
from repro.params import EXTRA_WINDOW_SLACK, OfflineConstraints
from repro.runner.cache import cached_feasible_stream
from repro.sim.engine import run_single_session
from repro.verify.certificates import min_existential_window_utilization

_HEADERS = [
    "B_A",
    "log2",
    "online chg",
    "opt low",
    "opt up",
    "ratio(up)",
    "ratio/log2",
    "chg/stage max",
    "max delay",
    "D_A",
    "min exist-util",
    "U_A",
]

_DELAY = 8
_UTILIZATION = 0.25
_WINDOW = 16


def points(seed: int, scale: float) -> list[int]:
    """The swept ``log2(B_A)`` exponents."""
    if scale < 0.5:
        return [4, 6, 8]
    return [4, 5, 6, 7, 8, 10, 12]


def run_point(exponent: int, index: int, seed: int = 0, scale: float = 1.0) -> dict:
    """One sweep point: workload + Figure 3 run + guarantee measurements."""
    horizon = scaled(6000, scale, minimum=800)
    segments = max(2, scaled(12, scale))
    max_bandwidth = float(2**exponent)
    offline = OfflineConstraints(
        bandwidth=max_bandwidth,
        delay=_DELAY,
        utilization=_UTILIZATION,
        window=_WINDOW,
    )
    stream = cached_feasible_stream(
        offline,
        horizon,
        segments=segments,
        seed=seed + exponent,
        burstiness="blocks",
    )
    policy = SingleSessionOnline(
        max_bandwidth=max_bandwidth,
        offline_delay=_DELAY,
        offline_utilization=_UTILIZATION,
        window=_WINDOW,
    )
    trace = run_single_session(policy, stream.arrivals)
    report = bracket(
        online_changes=trace.change_count,
        opt_lower=stage_lower_bound(stream.arrivals, offline),
        opt_upper=stream.profile_changes,
    )
    online_delay = 2 * _DELAY
    exist_util = min_existential_window_utilization(
        trace.arrivals,
        trace.allocation,
        _WINDOW + EXTRA_WINDOW_SLACK * _DELAY,
    )
    target_util = _UTILIZATION / 3.0
    row = [
        str(int(max_bandwidth)),
        str(exponent),
        str(report.online_changes),
        str(report.opt_lower),
        str(report.opt_upper),
        fmt(report.ratio_vs_upper),
        fmt(report.ratio_vs_upper / exponent),
        str(policy.max_changes_per_stage),
        str(trace.max_delay),
        str(online_delay),
        fmt(exist_util, 3),
        fmt(target_util, 3),
    ]
    return {
        "exponent": exponent,
        "row": row,
        "ratio": report.ratio_vs_upper / exponent,
        "delay_ok": bool(trace.max_delay <= online_delay),
        "util_ok": bool(exist_util >= target_util * (1 - 1e-6)),
        "stage_ok": bool(policy.max_changes_per_stage <= exponent + 2),
    }


def assemble(payloads: list[dict], seed: int = 0, scale: float = 1.0) -> ExperimentResult:
    """Fold per-exponent payloads (in point order) into the result."""
    exponents = [payload["exponent"] for payload in payloads]
    ratios = [payload["ratio"] for payload in payloads]
    result = ExperimentResult(
        experiment_id="E-T6",
        title="Theorem 6 — competitive ratio vs log2(B_A)",
        headers=_HEADERS,
        rows=[payload["row"] for payload in payloads],
    )
    result.check(
        "delay guarantee (Lemma 3)",
        all(payload["delay_ok"] for payload in payloads),
        "max bit delay <= D_A = 2·D_O at every sweep point",
    )
    result.check(
        "utilization guarantee (Lemma 5)",
        all(payload["util_ok"] for payload in payloads),
        "some window of <= W + 5·D_O achieves U_O/3 at every slot",
    )
    result.check(
        "per-stage change bound (Lemma 1)",
        all(payload["stage_ok"] for payload in payloads),
        "changes within any stage <= log2(B_A) + 2",
    )
    spread = max(ratios) / max(min(ratios), 1e-9)
    result.check(
        "O(log B_A) scaling (Theorem 6)",
        max(ratios) < 4.0,
        f"ratio/log2(B_A) stays bounded: max {max(ratios):.2f} "
        f"(spread x{spread:.1f} across a {2**exponents[0]}-"
        f"{2**exponents[-1]} bandwidth range)",
    )
    if len(exponents) >= 3:
        raw_ratios = [r * e for r, e in zip(ratios, exponents)]
        shape = growth_exponent([float(2**e) for e in exponents], raw_ratios)
        result.check(
            "sub-polynomial ratio growth (shape fit)",
            shape < 0.35,
            f"log-log slope of ratio vs B_A = {shape:.2f} "
            "(0 = flat, 1 = linear; logarithmic growth stays near 0)",
        )
    result.notes.append(
        "ratio(up) divides online changes by the generator-certificate "
        "change count — an upper bound on OPT, so the column upper-bounds "
        "nothing and lower-bounds the realized ratio; the theorem's "
        "envelope is c·log2(B_A)."
    )
    return result


run = register_sweep(
    "E-T6",
    "Theorem 6: single-session O(log B_A) competitiveness sweep",
    points=points,
    run_point=run_point,
    assemble=assemble,
)
