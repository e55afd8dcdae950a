"""E-ROB — which guarantees survive outside the feasibility assumption?

The theorems assume feasible input (footnote 1).  Real traffic does not
sign contracts.  This experiment runs the Figure 3 algorithm across the
full workload zoo — none of it certified feasible — and reports which
guarantees held anyway:

* **Claim 2** (``B_on >= q/D_A``) is *unconditional* — it must hold on
  every workload (its proof never uses feasibility of future arrivals,
  only that past bursts fit under ``B_A``, which we enforce by clipping).
* **Delay ≤ 2·D_O** and **utilization ≥ U_O/3** are *conditional* — they
  may break exactly when the input violates the Claim 9 envelope, and the
  table shows which workloads do.

Also reports per-session fairness of the phased algorithm on staggered
diurnal sessions (the drifting-peak ISP day).
"""

from __future__ import annotations

import numpy as np

from repro.analysis.fairness import delay_fairness, service_fairness
from repro.core.phased import PhasedMultiSession
from repro.core.single_session import SingleSessionOnline
from repro.experiments.common import ExperimentResult, fmt, scaled
from repro.experiments.registry import register
from repro.sim.engine import run_multi_session, run_single_session
from repro.traffic import (
    CompoundPoisson,
    MarkovModulatedPoisson,
    MpegVbr,
    OnOffBursts,
    ParetoBursts,
    PoissonArrivals,
    SelfSimilarAggregate,
)
from repro.traffic.diurnal import staggered_diurnal_sessions
from repro.traffic.multi import independent_processes_workload
from repro.verify.certificates import (
    claim2_margins,
    claim9_series,
    claim9_violations,
    min_existential_window_utilization,
)

#: The shared robustness contract (E-ROB and E-FAULT must agree on these
#: so the E-FAULT zero-intensity column reproduces E-ROB exactly).
B_A = 256.0
D_O = 8
U_O = 0.25
W = 16

# Backwards-compatible private aliases.
_B_A, _D_O, _U_O, _W = B_A, D_O, U_O, W


def robustness_zoo() -> dict:
    """The uncertified workload zoo shared by E-ROB and E-FAULT."""
    return {
        "poisson": PoissonArrivals(8.0),
        "compound": CompoundPoisson(burst_rate=0.3, mean_burst=20.0),
        "onoff": OnOffBursts(on_rate=30.0, mean_on=20, mean_off=30, jitter=0.3),
        "mmpp": MarkovModulatedPoisson.bursty(low=2.0, high=30.0),
        "vbr": MpegVbr(mean_rate=12.0),
        "pareto": ParetoBursts(0.05, 60.0, shape=1.5, cap=_B_A * _D_O),
        "selfsimilar": SelfSimilarAggregate(sources=16, rate_per_source=1.5),
    }


def zoo_arrivals(process, horizon: int, seed: int):
    """Materialize a zoo stream, clipped to single-slot feasibility.

    A single slot can carry at most ``(1 + D_O) · B_A`` bits (Claim 9 with
    Δ=1); both robustness experiments apply the same clip.
    """
    return np.minimum(process.materialize(horizon, seed), _B_A * (1 + _D_O))


@register("E-ROB", "Robustness: guarantees on uncertified (raw) workloads")
def run(seed: int = 0, scale: float = 1.0) -> ExperimentResult:
    horizon = scaled(4000, scale, minimum=600)
    rows = []
    result = ExperimentResult(
        experiment_id="E-ROB",
        title="Guarantee survival outside the feasibility assumption",
        headers=[
            "workload",
            "claim9 ok",
            "claim2 margin",
            "max delay",
            "delay ok (2·D_O)",
            "exist-util",
            "util ok (U_O/3)",
        ],
        rows=rows,
    )
    claim2_always = True
    for name, process in robustness_zoo().items():
        arrivals = zoo_arrivals(process, horizon, seed)
        policy = SingleSessionOnline(_B_A, _D_O, _U_O, _W)
        trace = run_single_session(policy, arrivals, max_drain_slots=100_000)
        claim2_min = float(claim2_margins(trace, 2 * _D_O)[0].min(initial=np.inf))
        # Claim 9's envelope is token-bucket conformance with rate B_O and
        # burst D_O·B_O.
        claim9_ok = claim9_violations(*claim9_series(arrivals, _B_A, _D_O)).size == 0
        exist = min_existential_window_utilization(
            trace.arrivals, trace.allocation, _W + 5 * _D_O
        )
        claim2_always &= claim2_min >= -1e-6
        rows.append(
            [
                name,
                "yes" if claim9_ok else "NO",
                fmt(claim2_min, 1),
                str(trace.max_delay),
                "yes" if trace.max_delay <= 2 * _D_O else "NO",
                fmt(exist, 3),
                "yes" if exist >= _U_O / 3 - 1e-9 else "NO",
            ]
        )

    # Fairness on the drifting ISP day.
    k, day = 6, 32 * _D_O
    sessions = staggered_diurnal_sessions(
        lambda: OnOffBursts(on_rate=16.0, mean_on=12, mean_off=12, jitter=0.2),
        k=k,
        period=day,
    )
    arrivals = independent_processes_workload(sessions, horizon, seed=seed + 1)
    phased = PhasedMultiSession(k, offline_bandwidth=64.0, offline_delay=_D_O)
    trace = run_multi_session(phased, arrivals, max_drain_slots=100_000)
    fairness_delay = delay_fairness(trace)
    fairness_service = service_fairness(trace)
    rows.append(
        [
            f"diurnal/k={k} (phased)",
            "-",
            "-",
            str(trace.max_delay),
            "-",
            f"J_delay={fairness_delay:.2f}",
            f"J_service={fairness_service:.2f}",
        ]
    )

    result.check(
        "Claim 2 is unconditional",
        claim2_always,
        "B_on >= q/D_A held on every uncertified workload "
        "(clipped to single-slot bursts under (1+D_O)·B_A)",
    )
    result.check(
        "fairness on the diurnal day",
        fairness_delay >= 0.5 and fairness_service >= 0.99,
        f"Jain delay index {fairness_delay:.2f}, service index "
        f"{fairness_service:.2f} across staggered-peak sessions",
    )
    result.notes.append(
        "Delay can only fail where the Claim 9 envelope does; the "
        "utilization guarantee additionally needs demand in every window "
        "(long silences break U_O-feasibility for ANY allocator, offline "
        "included — footnote 1 excludes such streams)."
    )
    return result
