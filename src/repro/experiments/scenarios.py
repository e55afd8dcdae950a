"""Certifiable scenarios for every registered experiment.

``repro verify E-T6`` needs a concrete trace to certify, but experiments
are registered as table-producing run functions that do not return their
traces.  This module maps every experiment id to a *scenario*: a builder
that reconstructs the experiment's representative configuration
(workload family, policy, engine), runs it, and certifies the resulting
traces with :mod:`repro.verify.certificates` — plus, where the theorem
is a competitive ratio (Theorems 6 / 7), an oracle check against
:func:`repro.verify.oracle.min_changes_oracle` on a small horizon.
E-VER and ``repro verify`` are its callers; it lives here, not in
:mod:`repro.verify`, because it runs the engines the checker checks.

Scenarios follow each experiment's own regime: certificate-backed
feasible workloads get the full conditional bound set (Claim 2, Lemma 3,
Corollary 4, Lemma 5, Lemmas 10/16); uncertified workloads (E-F1's raw
demand sketch, E-ROB's zoo, E-LB's doubling ladder, E-FAULT's faulted
cells) get the unconditional accounting checks only, with the
conditional bounds reported as skipped — certification must never claim
a theorem whose premise the workload does not meet.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from repro.core.combined import CombinedMultiSession
from repro.core.continuous import ContinuousMultiSession
from repro.core.modified_single import ModifiedSingleSessionOnline
from repro.core.phased import PhasedMultiSession
from repro.core.single_session import SingleSessionOnline
from repro.errors import ExperimentError
from repro.experiments.common import scaled
from repro.params import OfflineConstraints
from repro.sim.engine import run_multi_session, run_single_session
from repro.traffic.adversary import doubling_stream, sawtooth_stream
from repro.traffic.base import make_rng
from repro.traffic.feasible import generate_feasible_stream
from repro.traffic.multi import generate_multi_feasible
from repro.traffic.spikes import figure1_demand
from repro.verify.certificates import (
    certify_multi,
    certify_single,
    combined_bounds,
    continuous_bounds,
    phased_bounds,
    raw_single_bounds,
    single_session_bounds,
)
from repro.verify.oracle import min_changes_oracle
from repro.verify.report import CertificateReport

_OFFLINE = OfflineConstraints(bandwidth=64.0, delay=8, utilization=0.25, window=16)

#: Scenarios that are one Figure 3 run on a certified stream:
#: ``experiment id -> (seed offset, report label)``.
_FIG3_RUNS = {
    "E-F2": (0, "E-F2 fig3 (regime d)"),
    "E-INV": (0, "E-INV fig3 margins"),
    "E-BUF": (0, "E-BUF fig3 unbounded queue"),
    "E-PRICE": (0, "E-PRICE fig3 cell"),
    "E-ABL-QUANT": (0, "E-ABL-QUANT base-2 quantizer"),
    "E-ABL-HEADROOM": (1, "E-ABL-HEADROOM default"),
    "E-ABL-WINDOW": (2, "E-ABL-WINDOW W=16"),
    "E-VER": (7, "E-VER representative fig3"),
}

#: The other scenarios' builders, ``(seed, scale) -> reports``.
_BUILDERS: dict[str, Callable[[int, float], list[CertificateReport]]] = {}


def _scenario(experiment_id: str):
    def wrap(fn):
        _BUILDERS[experiment_id] = fn
        return fn

    return wrap


def scenario_ids() -> list[str]:
    return sorted([*_FIG3_RUNS, *_BUILDERS])


def certify_experiment(
    experiment_id: str, seed: int = 0, scale: float = 1.0
) -> list[CertificateReport]:
    """Build and certify the scenario for one experiment id."""
    if experiment_id in _FIG3_RUNS:
        offset, label = _FIG3_RUNS[experiment_id]
        return [_certified_fig3_run(seed + offset, scale, label)]
    if experiment_id not in _BUILDERS:
        known = ", ".join(scenario_ids())
        raise ExperimentError(
            f"no verify scenario for {experiment_id!r}; known: {known}"
        )
    return _BUILDERS[experiment_id](seed, scale)


def _fig3(offline: OfflineConstraints, **kwargs) -> SingleSessionOnline:
    return SingleSessionOnline(
        max_bandwidth=offline.bandwidth,
        offline_delay=offline.delay,
        offline_utilization=offline.utilization,
        window=offline.window,
        **kwargs,
    )


def _certified_fig3_run(
    seed: int,
    scale: float,
    label: str,
    offline: OfflineConstraints = _OFFLINE,
    policy=None,
) -> CertificateReport:
    """Feasible stream -> Figure 3 run -> full conditional certification."""
    horizon = scaled(2000, scale, minimum=400)
    stream = generate_feasible_stream(
        offline,
        horizon,
        segments=max(2, scaled(8, scale)),
        seed=seed,
        burstiness="blocks",
    )
    trace = run_single_session(policy or _fig3(offline), stream.arrivals)
    return certify_single(
        trace, single_session_bounds(offline), profile=stream.profile, label=label
    )


def _raw_run(
    arrivals: np.ndarray,
    label: str,
    max_bandwidth: float = _OFFLINE.bandwidth,
    offline_delay: int = _OFFLINE.delay,
    policy=None,
) -> CertificateReport:
    """Uncertified stream -> unconditional accounting checks only."""
    offline = OfflineConstraints(
        bandwidth=max_bandwidth,
        delay=offline_delay,
        utilization=_OFFLINE.utilization,
        window=_OFFLINE.window,
    )
    trace = run_single_session(policy or _fig3(offline), arrivals)
    return certify_single(
        trace, raw_single_bounds(max_bandwidth, offline_delay), label=label
    )


def _oracle_ratio_report(
    label: str,
    policy,
    offline: OfflineConstraints,
    seed: int,
    log_factor: float,
) -> CertificateReport:
    """Small-horizon run whose change count is checked against the DP
    oracle: ``online <= 6 · log_factor · (OPT + 1)`` — the theorem's
    multiplicative envelope with the additive climb folded into ``+1``
    (the online pays its power-of-two ladder even when OPT = 0)."""
    horizon = 8 * max(offline.window, 4 * offline.delay)
    stream = generate_feasible_stream(
        offline, horizon, segments=4, seed=seed, burstiness="blocks"
    )
    trace = run_single_session(policy, stream.arrivals)
    report = certify_single(
        trace, single_session_bounds(offline), profile=stream.profile, label=label
    )
    oracle = min_changes_oracle(stream.arrivals, offline)
    budget = 6.0 * max(1.0, log_factor) * ((oracle.changes or 0) + 1)
    report.add(
        "oracle-ratio",
        "Theorem 6 / 7",
        bool(oracle.feasible and trace.change_count <= budget),
        f"online changes {trace.change_count} <= "
        f"6·{max(1.0, log_factor):.0f}·(OPT+1) = {budget:.0f} with "
        f"DP-exact OPT = {oracle.changes}",
        margin=budget - trace.change_count,
    )
    report.add(
        "oracle-dominates-certificate",
        "oracle soundness",
        bool(
            oracle.feasible and (oracle.changes or 0) <= stream.profile_changes
        ),
        f"DP optimum {oracle.changes} <= generator certificate switches "
        f"{stream.profile_changes} (the oracle lower-bounds any witness)",
    )
    return report


def _multi_workload(k: int, seed: int, scale: float, concentration: float = 0.7):
    return generate_multi_feasible(
        k,
        offline_bandwidth=_OFFLINE.bandwidth,
        offline_delay=_OFFLINE.delay,
        horizon=scaled(1500, scale, minimum=400),
        segments=max(2, scaled(8, scale)),
        seed=seed,
        concentration=concentration,
        burstiness="blocks",
    )


# ---------------------------------------------------------------------------
# Theorem sweeps


@_scenario("E-T6")
def _build_t6(seed: int, scale: float) -> list[CertificateReport]:
    small = OfflineConstraints(bandwidth=64.0, delay=4, utilization=0.25, window=8)
    return [
        _certified_fig3_run(seed, scale, "E-T6 fig3 @ B_A=64"),
        _oracle_ratio_report(
            "E-T6 oracle ratio @ B_A=64",
            _fig3(small),
            small,
            seed + 1,
            log_factor=math.log2(small.bandwidth),
        ),
    ]


@_scenario("E-T7")
def _build_t7(seed: int, scale: float) -> list[CertificateReport]:
    offline = OfflineConstraints(
        bandwidth=1024.0, delay=8, utilization=1 / 16, window=16
    )
    modified = ModifiedSingleSessionOnline(
        max_bandwidth=offline.bandwidth,
        offline_delay=offline.delay,
        offline_utilization=offline.utilization,
        window=offline.window,
    )
    small = OfflineConstraints(bandwidth=64.0, delay=4, utilization=1 / 16, window=8)
    return [
        _certified_fig3_run(
            seed, scale, "E-T7 thm7 @ U_O=1/16", offline=offline, policy=modified
        ),
        _certified_fig3_run(seed, scale, "E-T7 fig3 @ U_O=1/16", offline=offline),
        _oracle_ratio_report(
            "E-T7 oracle ratio @ U_O=1/16",
            ModifiedSingleSessionOnline(
                max_bandwidth=small.bandwidth,
                offline_delay=small.delay,
                offline_utilization=small.utilization,
                window=small.window,
            ),
            small,
            seed + 1,
            log_factor=math.log2(1 / small.utilization),
        ),
    ]


@_scenario("E-T14")
def _build_t14(seed: int, scale: float) -> list[CertificateReport]:
    k = 4
    workload = _multi_workload(k, seed, scale)
    policy = PhasedMultiSession(
        k, offline_bandwidth=_OFFLINE.bandwidth, offline_delay=_OFFLINE.delay
    )
    trace = run_multi_session(policy, workload.arrivals)
    return [
        certify_multi(
            trace,
            phased_bounds(_OFFLINE.bandwidth, _OFFLINE.delay, k),
            label="E-T14 phased @ k=4",
        )
    ]


@_scenario("E-T17")
def _build_t17(seed: int, scale: float) -> list[CertificateReport]:
    k = 4
    workload = _multi_workload(k, seed, scale)
    policy = ContinuousMultiSession(
        k, offline_bandwidth=_OFFLINE.bandwidth, offline_delay=_OFFLINE.delay
    )
    trace = run_multi_session(policy, workload.arrivals)
    return [
        certify_multi(
            trace,
            continuous_bounds(_OFFLINE.bandwidth, _OFFLINE.delay, k),
            label="E-T17 continuous @ k=4",
        )
    ]


@_scenario("E-C")
def _build_c(seed: int, scale: float) -> list[CertificateReport]:
    k = 2
    horizon = scaled(1500, scale, minimum=400)
    stream = generate_feasible_stream(
        _OFFLINE,
        horizon,
        segments=max(2, scaled(6, scale)),
        seed=seed,
        burstiness="blocks",
    )
    # Split the jointly-feasible aggregate across sessions with drifting
    # weights (the E-C workload construction).
    rng = make_rng(seed + 1)
    weights = rng.dirichlet(np.ones(k))
    arrivals = np.zeros((horizon, k))
    for t in range(horizon):
        if t % (4 * _OFFLINE.delay) == 0:
            weights = rng.dirichlet(np.ones(k))
        arrivals[t] = stream.arrivals[t] * weights
    policy = CombinedMultiSession(
        k,
        offline_bandwidth=_OFFLINE.bandwidth,
        offline_delay=_OFFLINE.delay,
        offline_utilization=_OFFLINE.utilization,
        window=_OFFLINE.window,
        inner="phased",
    )
    trace = run_multi_session(policy, arrivals)
    return [
        certify_multi(
            trace,
            combined_bounds(_OFFLINE, k, inner="phased"),
            label="E-C combined @ k=2 phased",
        )
    ]


# ---------------------------------------------------------------------------
# Figures, economics, buffers, invariants


@_scenario("E-F1")
def _build_f1(seed: int, scale: float) -> list[CertificateReport]:
    horizon = scaled(800, scale, minimum=200)
    demand = figure1_demand(mean_rate=8.0).materialize(horizon, seed)
    arrivals = np.minimum(demand, _OFFLINE.bandwidth * (1 + _OFFLINE.delay))
    return [_raw_run(arrivals, "E-F1 fig3 on raw Figure 1 demand")]


@_scenario("E-FAULT")
def _build_fault(seed: int, scale: float) -> list[CertificateReport]:
    from repro.faults import standard_plan

    horizon = scaled(1200, scale, minimum=400)
    stream = generate_feasible_stream(
        _OFFLINE,
        horizon,
        segments=max(2, scaled(6, scale)),
        seed=seed,
        burstiness="blocks",
    )
    baseline = run_single_session(_fig3(_OFFLINE), stream.arrivals)
    plan = standard_plan(0.4, len(stream.arrivals), seed=seed)
    faulted = run_single_session(_fig3(_OFFLINE), stream.arrivals, faults=plan)
    return [
        certify_single(
            baseline,
            single_session_bounds(_OFFLINE),
            profile=stream.profile,
            label="E-FAULT baseline (intensity 0)",
        ),
        certify_single(
            faulted,
            raw_single_bounds(_OFFLINE.bandwidth, _OFFLINE.delay),
            label="E-FAULT faulted (intensity 0.4)",
        ),
    ]


@_scenario("E-LB")
def _build_lb(seed: int, scale: float) -> list[CertificateReport]:
    sawtooth = sawtooth_stream(
        offline_bandwidth=_OFFLINE.bandwidth,
        offline_delay=_OFFLINE.delay,
        utilization=_OFFLINE.utilization,
        window=_OFFLINE.window,
        cycles=max(4, scaled(12, scale)),
    )
    sawtooth_trace = run_single_session(_fig3(_OFFLINE), sawtooth)
    ladder = doubling_stream(
        max_bandwidth=_OFFLINE.bandwidth, offline_delay=_OFFLINE.delay
    )
    return [
        certify_single(
            sawtooth_trace,
            single_session_bounds(_OFFLINE),
            label="E-LB sawtooth adversary",
        ),
        _raw_run(ladder, "E-LB doubling ladder"),
    ]


@_scenario("E-ADV")
def _build_adv(seed: int, scale: float) -> list[CertificateReport]:
    # Local import: the adversary package must not load as a side effect
    # of importing the scenarios.
    from repro.adversary.differential import certified_attack_run
    from repro.adversary.generators import sawtooth_attack, threshold_oscillator_attack

    reports = []
    for candidate, label in (
        (
            threshold_oscillator_attack(
                _OFFLINE, cycles=max(2, scaled(4, scale)), seed=seed
            ),
            "E-ADV oscillator attack",
        ),
        (
            sawtooth_attack(_OFFLINE, max(2, scaled(6, scale))),
            "E-ADV sawtooth attack (zero-change witness)",
        ),
    ):
        _, report, _ = certified_attack_run(
            candidate.arrivals,
            _OFFLINE,
            profile=candidate.profile,
            policy=_fig3(_OFFLINE),
            label=label,
        )
        reports.append(report)
    return reports


@_scenario("E-ARENA")
def _build_arena(seed: int, scale: float) -> list[CertificateReport]:
    # Local import: the arena sits above the verify layer and must not
    # load as a side effect of importing the scenarios.
    from repro.arena import ARENA_OFFLINE, MIN_HORIZON, resolve_policy, traffic_seed
    from repro.arena.catalog import resolve_traffic
    from repro.verify.fairness import certify_max_min_trace, certify_tier_trace

    k = 4
    horizon = scaled(256, scale, minimum=MIN_HORIZON)
    reports = []
    for traffic in ("smooth", "bursty"):
        sample = resolve_traffic(traffic).generate(
            k, ARENA_OFFLINE, horizon, traffic_seed(traffic, seed)
        )
        for name in ("max-min", "priority-tier"):
            policy = resolve_policy(name).build(k, ARENA_OFFLINE)
            trace = run_multi_session(policy, sample.arrivals)
            if name == "max-min":
                report = certify_max_min_trace(
                    trace,
                    capacity=policy.capacity,
                    period=policy.period,
                    quantum=policy.quantum,
                    label=f"E-ARENA max-min on {traffic}",
                )
            else:
                report = certify_tier_trace(
                    trace,
                    capacity=policy.capacity,
                    period=policy.period,
                    quantum=policy.quantum,
                    tiers=list(policy.tiers),
                    floors=list(policy.floors),
                    label=f"E-ARENA priority-tier on {traffic}",
                )
            reports.append(report)
    return reports


@_scenario("E-ROB")
def _build_rob(seed: int, scale: float) -> list[CertificateReport]:
    from repro.experiments.robustness import B_A, D_O, robustness_zoo, zoo_arrivals

    horizon = scaled(1200, scale, minimum=300)
    zoo = robustness_zoo()
    reports = []
    for name in ("onoff", "pareto"):
        arrivals = zoo_arrivals(zoo[name], horizon, seed)
        reports.append(
            _raw_run(
                arrivals,
                f"E-ROB {name} (uncertified)",
                max_bandwidth=B_A,
                offline_delay=D_O,
                policy=SingleSessionOnline(B_A, D_O, 0.25, 16),
            )
        )
    return reports


# ---------------------------------------------------------------------------
# Ablations


@_scenario("E-ABL-FIFO")
def _build_abl_fifo(seed: int, scale: float) -> list[CertificateReport]:
    k = 4
    workload = _multi_workload(k, seed, scale)
    reports = []
    for fifo in (False, True):
        policy = PhasedMultiSession(
            k,
            offline_bandwidth=_OFFLINE.bandwidth,
            offline_delay=_OFFLINE.delay,
            fifo=fifo,
        )
        trace = run_multi_session(policy, workload.arrivals)
        reports.append(
            certify_multi(
                trace,
                phased_bounds(_OFFLINE.bandwidth, _OFFLINE.delay, k),
                label=f"E-ABL-FIFO phased fifo={fifo}",
            )
        )
    return reports


@_scenario("E-ABL-GLOBAL")
def _build_abl_global(seed: int, scale: float) -> list[CertificateReport]:
    ladder = doubling_stream(
        max_bandwidth=_OFFLINE.bandwidth, offline_delay=_OFFLINE.delay
    )
    return [
        _certified_fig3_run(seed + 3, scale, "E-ABL-GLOBAL certified stream"),
        _raw_run(ladder, "E-ABL-GLOBAL doubling ladder"),
    ]
