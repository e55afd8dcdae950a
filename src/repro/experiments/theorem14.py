"""E-T14 — Theorem 14: the phased algorithm is a 3k-competitive
(4·B_O, 2·D_O)-algorithm.

Sweep the session count ``k``; for each point generate certificate-backed
multi-session workloads whose offline assignment shifts bandwidth between
sessions, run the phased algorithm, and verify:

* delay ``<= 2·D_O``                                  (Lemma 11)
* total allocation ``<= 4·B_O`` and overflow ``<= 2·B_O``  (Lemma 10)
* changes per stage ``= O(k)``                        (Lemma 12)
* changes / OPT growing linearly in ``k``             (Theorem 14)

The sweep harness (:func:`make_sweep`) is shared with Theorem 17 and is
declared in the shardable points/run_point/assemble shape: each ``k`` is
an independent workload + run, so the batch runner can fan points out to
worker processes.  The policy factory stays inside the closure — workers
resolve it by re-importing this module, so nothing unpicklable crosses a
process boundary.
"""

from __future__ import annotations

from repro.analysis.competitive import bracket
from repro.analysis.fitting import growth_exponent
from repro.core.offline_multi import multi_stage_lower_bound
from repro.core.phased import PhasedMultiSession
from repro.experiments.common import ExperimentResult, fmt, scaled
from repro.experiments.registry import register_sweep
from repro.runner.cache import cached_multi_feasible
from repro.sim.engine import run_multi_session
from repro.verify.certificates import peak, session_sums

_HEADERS = [
    "k",
    "online chg",
    "opt low",
    "opt up",
    "ratio(up)",
    "ratio/k",
    "stages",
    "chg/stage",
    "chg/stage/k",
    "max delay",
    "D_A",
    "max alloc/B_O",
    "max ovfl/B_O",
]


def _sweep_points(scale: float) -> list[int]:
    if scale < 0.5:
        return [2, 8]
    return [2, 4, 8, 16, 32]


def make_sweep(
    policy_factory,
    bandwidth_slack: float,
    overflow_slack: float,
    experiment_id: str,
    title: str,
):
    """Shardable sweep harness shared by Theorems 14 and 17.

    Returns the ``(points, run_point, assemble)`` triple for
    :func:`~repro.experiments.registry.register_sweep`.
    """
    offline_bandwidth = 64.0
    offline_delay = 8

    def points(seed: int, scale: float) -> list[int]:
        return _sweep_points(scale)

    def run_point(k: int, index: int, seed: int = 0, scale: float = 1.0) -> dict:
        horizon = scaled(5000, scale, minimum=600)
        segments = max(2, scaled(10, scale))
        workload = cached_multi_feasible(
            k,
            offline_bandwidth=offline_bandwidth,
            offline_delay=offline_delay,
            horizon=horizon,
            segments=segments,
            seed=seed + k,
            concentration=0.7,
            burstiness="blocks",
        )
        policy = policy_factory(k, offline_bandwidth, offline_delay)
        trace = run_multi_session(policy, workload.arrivals)
        overflow_peak = peak(session_sums(trace.overflow_allocation))
        report = bracket(
            online_changes=trace.local_change_count,
            opt_lower=multi_stage_lower_bound(
                workload.arrivals, offline_bandwidth, offline_delay
            ),
            opt_upper=workload.profile_changes,
        )
        stages = max(1, trace.completed_stages + 1)  # count the open stage
        per_stage = trace.local_change_count / stages
        online_delay = 2 * offline_delay
        row = [
            str(k),
            str(report.online_changes),
            str(report.opt_lower),
            str(report.opt_upper),
            fmt(report.ratio_vs_upper),
            fmt(report.ratio_vs_upper / k),
            str(trace.completed_stages),
            fmt(per_stage, 1),
            fmt(per_stage / k),
            str(trace.max_delay),
            str(online_delay),
            fmt(trace.max_total_allocation / offline_bandwidth),
            fmt(overflow_peak / offline_bandwidth),
        ]
        return {
            "k": k,
            "row": row,
            "per_stage": per_stage,
            "per_stage_per_k": per_stage / k,
            "delay_ok": bool(trace.max_delay <= online_delay),
            "alloc_ok": bool(
                trace.max_total_allocation
                <= bandwidth_slack * offline_bandwidth * (1 + 1e-9)
                and overflow_peak
                <= overflow_slack * offline_bandwidth * (1 + 1e-6) + 1e-6
            ),
        }

    def assemble(
        payloads: list[dict], seed: int = 0, scale: float = 1.0
    ) -> ExperimentResult:
        result = ExperimentResult(
            experiment_id=experiment_id,
            title=title,
            headers=_HEADERS,
            rows=[payload["row"] for payload in payloads],
        )
        per_stage_per_k = [payload["per_stage_per_k"] for payload in payloads]
        ks = [float(payload["k"]) for payload in payloads]
        change_counts = [payload["per_stage"] for payload in payloads]
        result.check(
            "delay guarantee (Lemma 11/15)",
            all(payload["delay_ok"] for payload in payloads),
            "max bit delay <= D_A = 2·D_O at every k",
        )
        result.check(
            "bandwidth envelope",
            all(payload["alloc_ok"] for payload in payloads),
            f"total allocation <= {bandwidth_slack:.0f}·B_O (overflow channel "
            f"within {overflow_slack:.0f}·B_O, see last column)",
        )
        result.check(
            "O(k) changes per stage (Lemma 12)",
            max(per_stage_per_k) <= 6.0,
            f"changes/stage/k stays bounded: max {max(per_stage_per_k):.2f}",
        )
        if len(ks) >= 3:
            exponent = growth_exponent(ks, change_counts)
            result.check(
                "linear-in-k per-stage changes (shape fit)",
                0.4 <= exponent <= 1.3,
                f"log-log slope of changes/stage vs k = {exponent:.2f} "
                "(1.0 = exactly linear; Lemma 12's 3k envelope)",
            )
        result.notes.append(
            "ratio/k should stay roughly flat as k grows — the linear-in-k "
            "competitive envelope of the theorem."
        )
        return result

    return points, run_point, assemble


_points, _run_point, _assemble = make_sweep(
    policy_factory=lambda k, bandwidth, delay: PhasedMultiSession(
        k, offline_bandwidth=bandwidth, offline_delay=delay
    ),
    bandwidth_slack=4.0,
    overflow_slack=2.0,
    experiment_id="E-T14",
    title="Theorem 14 — phased algorithm vs k",
)

run = register_sweep(
    "E-T14",
    "Theorem 14: phased multi-session 3k-competitiveness sweep",
    points=_points,
    run_point=_run_point,
    assemble=_assemble,
)
