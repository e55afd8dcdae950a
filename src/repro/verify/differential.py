"""Differential fuzzing helpers: engines vs certificates vs the oracle.

The hypothesis test-suite (``tests/verify/test_differential.py``) and
the nightly fuzz job drive these helpers with generated workloads; they
stay hypothesis-free so the harness is importable anywhere:

* :func:`certified_single_run` / :func:`certified_multi_run` — run an
  engine configuration and certify the trace in one step;
* :func:`vector_mismatch_single` / :func:`vector_mismatch_multi` — the
  engine's slice/scalar-step bit-identity differential;
* :func:`oracle_ratio_check` — online change count vs the DP-exact
  offline optimum;
* :func:`assert_certified` — raise with the fully rendered report, so a
  hypothesis shrink prints the violating slot.
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
    ``vector``, ``queue_capacity``, ``drain``) pass through to
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


_SINGLE_ARRAYS = (
    "arrivals",
    "allocation",
    "delivered",
    "backlog",
    "dropped",
    "requested",
    "effective",
)
_MULTI_ARRAYS = (
    "arrivals",
    "regular_allocation",
    "overflow_allocation",
    "delivered",
    "backlog",
    "extra_allocation",
    "requested_total",
    "dropped",
)


def _trace_mismatch(a, b, arrays: tuple[str, ...]) -> str | None:
    """First bit-level difference between two traces, or None."""
    for name in arrays:
        left = np.asarray(getattr(a, name))
        right = np.asarray(getattr(b, name))
        if left.shape != right.shape:
            return f"{name}: shapes {left.shape} vs {right.shape}"
        if not np.array_equal(left, right):
            where = np.argwhere(left != right)[0]
            return (
                f"{name}: first divergence at {tuple(int(i) for i in where)} "
                f"({left[tuple(where)]!r} vs {right[tuple(where)]!r})"
            )
    return None


def vector_mismatch_single(
    policy_factory, arrivals: np.ndarray, **engine_kwargs
) -> str | None:
    """Run the engine with and without the bulk fast-forward; describe any
    divergence.

    ``policy_factory`` must return a *fresh* policy per call (policies are
    stateful).  Returns ``None`` when the traces are bit-identical — the
    engine's documented guarantee.
    """
    bulk = run_single_session(policy_factory(), arrivals, **engine_kwargs)
    scalar = run_single_session(
        policy_factory(), arrivals, vector=False, **engine_kwargs
    )
    return _trace_mismatch(bulk, scalar, _SINGLE_ARRAYS)


def vector_mismatch_multi(
    policy_factory, arrivals: np.ndarray, **engine_kwargs
) -> str | None:
    """Multi-session bulk/scalar differential (see the single variant)."""
    bulk = run_multi_session(policy_factory(), arrivals, **engine_kwargs)
    scalar = run_multi_session(
        policy_factory(), arrivals, vector=False, **engine_kwargs
    )
    return _trace_mismatch(bulk, scalar, _MULTI_ARRAYS)


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


def oracle_ratio_check(
    arrivals: np.ndarray,
    offline: OfflineConstraints,
    online_changes: int,
    log_factor: float,
    constant: float = 6.0,
) -> tuple[int | None, float, bool]:
    """Is ``online_changes`` within the theorem envelope of the DP optimum?

    Returns ``(opt, budget, ok)`` with
    ``budget = constant · max(1, log_factor) · (opt + 1)`` — Theorem 6/7's
    multiplicative envelope, the ``+1`` absorbing the online ladder climb
    that is unavoidable even when a constant schedule is offline-optimal.
    """
    oracle = min_changes_oracle(arrivals, offline)
    if not oracle.feasible:
        return None, float("nan"), True  # no offline baseline: no statement
    budget = constant * max(1.0, log_factor) * (oracle.changes + 1)
    return oracle.changes, budget, online_changes <= budget


def assert_certified(report: CertificateReport) -> None:
    """Raise ``AssertionError`` carrying the whole rendered report."""
    if not report.certified:
        raise AssertionError(report.render())
