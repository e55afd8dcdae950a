"""E-INV — how tightly the proved invariants run in practice.

Runs the algorithm suite across the workload zoo and replays each trace
through the certificate helpers of :mod:`repro.verify.certificates`
(Claim 2, Claim 9, Corollary 4, Lemmas 10/16, the 2·D_O delay bound),
reporting the observed worst-case *margins*.  A margin going negative
would fail the experiment's check; the table shows how much headroom
each proved bound keeps on realistic traffic.
"""

from __future__ import annotations

import zlib

from repro.core.continuous import ContinuousMultiSession
from repro.core.phased import PhasedMultiSession
from repro.core.single_session import SingleSessionOnline
from repro.experiments.common import ExperimentResult, fmt, scaled
from repro.experiments.registry import register
from repro.params import OfflineConstraints
from repro.sim.engine import run_multi_session, run_single_session
from repro.runner.cache import cached_feasible_stream, cached_multi_feasible
from repro.verify.certificates import (
    claim2_margins,
    claim2_violations,
    claim9_series,
    claim9_violations,
    corollary4_slack,
    peak,
    replay_fifo_service,
    session_sums,
)

_HEADERS = [
    "scenario",
    "invariant",
    "bound",
    "worst observed",
    "margin",
]


@register("E-INV", "Invariant margins: Claims 2/9, Lemmas 10/16 across the zoo")
def run(seed: int = 0, scale: float = 1.0) -> ExperimentResult:
    delay = 8
    utilization = 0.25
    window = 16
    bandwidth = 128.0
    horizon = scaled(4000, scale, minimum=600)
    segments = max(2, scaled(8, scale))

    rows = []
    result = ExperimentResult(
        experiment_id="E-INV",
        title="Invariant tightness across workloads",
        headers=_HEADERS,
        rows=rows,
    )

    offline = OfflineConstraints(
        bandwidth=bandwidth, delay=delay, utilization=utilization, window=window
    )
    violated = False
    for burstiness in ("smooth", "blocks"):
        stream = cached_feasible_stream(
            offline,
            horizon,
            segments=segments,
            # crc32, not hash(): str hashing is salted per process, which
            # would make the workload differ between runs and workers.
            seed=seed + zlib.crc32(burstiness.encode()) % 1000,
            burstiness=burstiness,
        )
        policy = SingleSessionOnline(
            max_bandwidth=bandwidth,
            offline_delay=delay,
            offline_utilization=utilization,
            window=window,
        )
        trace = run_single_session(policy, stream.arrivals)
        margin, queue = claim2_margins(trace, 2 * delay)
        claim2_min = float(margin.min(initial=float("inf")))
        excess, cumulative = claim9_series(trace.arrivals, bandwidth, delay)
        claim9_max = float(excess.max(initial=float("-inf")))
        max_delay = replay_fifo_service(
            trace.arrivals - trace.dropped, trace.effective
        ).max_delay
        violated |= (
            claim2_violations(margin, queue).size > 0
            or claim9_violations(excess, cumulative).size > 0
            or peak(trace.allocation) > bandwidth * (1 + 1e-6) + 1e-6
            or max_delay > 2 * delay
        )
        slack, _ = corollary4_slack(
            trace.backlog, trace.arrivals, stream.profile, bandwidth, delay
        )
        corollary4 = float(slack.min(initial=float("inf")))
        scenario = f"single/{burstiness}"
        rows.append(
            [
                scenario,
                "Claim 2: B_on >= q/D_A",
                ">= 0",
                fmt(claim2_min, 3),
                "slack bits" if claim2_min >= 0 else "VIOLATED",
            ]
        )
        rows.append(
            [
                scenario,
                "Claim 9 arrival envelope",
                "<= 0",
                fmt(claim9_max, 3),
                "excess bits" if claim9_max <= 0 else "VIOLATED",
            ]
        )
        rows.append(
            [
                scenario,
                "delay <= 2·D_O",
                str(2 * delay),
                str(max_delay),
                f"{2 * delay - max_delay} slots",
            ]
        )
        rows.append(
            [
                scenario,
                "Corollary 4: q <= q_off + B_O·D_O",
                ">= 0",
                fmt(corollary4, 1),
                "slack bits" if corollary4 >= 0 else "VIOLATED",
            ]
        )

    for label, factory, overflow_slack in (
        ("phased", PhasedMultiSession, 2.0),
        ("continuous", ContinuousMultiSession, 3.0),
    ):
        workload = cached_multi_feasible(
            8,
            offline_bandwidth=bandwidth,
            offline_delay=delay,
            horizon=horizon,
            segments=segments,
            seed=seed + 17,
            burstiness="blocks",
        )
        policy = factory(8, offline_bandwidth=bandwidth, offline_delay=delay)
        trace = run_multi_session(policy, workload.arrivals)
        bound = bandwidth * overflow_slack
        overflow_peak = peak(session_sums(trace.overflow_allocation))
        excess, cumulative = claim9_series(
            session_sums(trace.arrivals), bandwidth, delay
        )
        violated |= (
            overflow_peak > bound * (1 + 1e-6) + 1e-6
            or claim9_violations(excess, cumulative).size > 0
            or trace.max_delay > 2 * delay
        )
        rows.append(
            [
                f"multi/{label}",
                f"overflow <= {overflow_slack:.0f}·B_O",
                fmt(bound, 1),
                fmt(overflow_peak, 1),
                fmt(bound - overflow_peak, 1),
            ]
        )
        rows.append(
            [
                f"multi/{label}",
                "delay <= 2·D_O",
                str(2 * delay),
                str(trace.max_delay),
                f"{2 * delay - trace.max_delay} slots",
            ]
        )

    # The check's wording is pinned by the report digest.
    result.check(
        "no invariant violated",
        not violated,
        "every monitored run completed without InvariantViolation "
        "(violations abort the run)",
    )
    return result
