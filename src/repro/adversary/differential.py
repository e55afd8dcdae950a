"""Run an engine configuration and certify its trace in one step.

* :func:`certified_single_run` / :func:`certified_multi_run` — run a
  single- or multi-session configuration and certify the trace;
* :func:`certified_attack_run` — the search's scoring hook
  (:mod:`repro.adversary.search`), which also classifies the change
  count against the DP oracle.

The differential tests drive the same helpers with generated workloads.
They sit here rather than in :mod:`repro.verify`, which imports nothing
from the engines it checks.
"""

from __future__ import annotations

import numpy as np

from repro.core.continuous import ContinuousMultiSession
from repro.core.phased import PhasedMultiSession
from repro.core.single_session import SingleSessionOnline
from repro.errors import ConfigError
from repro.params import OfflineConstraints
from repro.sim.engine import run_multi_session, run_single_session
from repro.verify.certificates import (
    certify_multi,
    certify_single,
    continuous_bounds,
    phased_bounds,
    raw_single_bounds,
    single_session_bounds,
)
from repro.verify.oracle import min_changes_oracle
from repro.verify.report import CertificateReport


def default_policy(offline: OfflineConstraints) -> SingleSessionOnline:
    return SingleSessionOnline(
        max_bandwidth=offline.bandwidth,
        offline_delay=offline.delay,
        offline_utilization=(
            offline.utilization if offline.utilization is not None else 0.25
        ),
        window=offline.window if offline.window is not None else 2 * offline.delay,
    )


def certified_single_run(
    arrivals: np.ndarray,
    offline: OfflineConstraints,
    profile: np.ndarray | None = None,
    *,
    policy=None,
    feasible: bool = True,
    label: str = "fuzz single",
    **engine_kwargs,
) -> tuple[object, CertificateReport]:
    """Run one single-session configuration and certify its trace.

    ``feasible=True`` applies the full conditional bound set (use only
    when the workload carries a certificate, e.g. came out of
    ``generate_feasible_stream``); ``feasible=False`` restricts to the
    unconditional accounting checks.  Extra ``engine_kwargs`` (``faults``,
    ``queue_capacity``, ``drain``) pass through to
    :func:`~repro.sim.engine.run_single_session`.
    """
    trace = run_single_session(
        policy or default_policy(offline), arrivals, **engine_kwargs
    )
    if feasible:
        bounds = single_session_bounds(offline)
    else:
        bounds = raw_single_bounds(offline.bandwidth, offline.delay)
    report = certify_single(trace, bounds, profile=profile, label=label)
    return trace, report


def certified_multi_run(
    arrivals: np.ndarray,
    offline_bandwidth: float,
    offline_delay: int,
    *,
    engine: str = "phased",
    fifo: bool = False,
    feasible: bool = True,
    label: str = "fuzz multi",
    **engine_kwargs,
) -> tuple[object, CertificateReport]:
    """Run one multi-session configuration and certify its trace."""
    arrivals = np.asarray(arrivals, dtype=float)
    k = arrivals.shape[1]
    if engine == "phased":
        policy = PhasedMultiSession(
            k,
            offline_bandwidth=offline_bandwidth,
            offline_delay=offline_delay,
            fifo=fifo,
        )
        bounds = phased_bounds(offline_bandwidth, offline_delay, k, feasible)
    elif engine == "continuous":
        policy = ContinuousMultiSession(
            k,
            offline_bandwidth=offline_bandwidth,
            offline_delay=offline_delay,
            fifo=fifo,
        )
        bounds = continuous_bounds(offline_bandwidth, offline_delay, k, feasible)
    else:
        raise ConfigError(f"engine must be 'phased' or 'continuous', got {engine!r}")
    trace = run_multi_session(policy, arrivals, **engine_kwargs)
    report = certify_multi(trace, bounds, label=label)
    return trace, report


def certified_attack_run(
    arrivals: np.ndarray,
    offline: OfflineConstraints,
    *,
    profile: np.ndarray | None = None,
    policy=None,
    label: str = "attack single",
    **engine_kwargs,
):
    """Run + certify + oracle-classify one adversarial candidate.

    The :mod:`repro.adversary` search loop's scoring hook: like
    :func:`certified_single_run` but additionally classifies the online
    change count against the DP oracle's optimum
    (:func:`repro.verify.oracle.classify_ratio`), so a candidate that
    drives the Remark §1.1 ``unbounded`` signature is recognized as such
    rather than folded into a finite quotient.  ``feasible`` bounds are
    applied exactly when the candidate carries a witness ``profile``.

    Returns ``(trace, report, verdict)``.
    """
    trace, report = certified_single_run(
        arrivals,
        offline,
        profile=profile,
        policy=policy,
        feasible=profile is not None,
        label=label,
        **engine_kwargs,
    )
    verdict = min_changes_oracle(arrivals, offline).ratio(trace.change_count)
    return trace, report, verdict
