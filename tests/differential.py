"""Differential test helpers: engines vs their scalar twins vs the oracle.

* :func:`vector_mismatch_single` / :func:`vector_mismatch_multi` — the
  engine's slice/scalar-step bit-identity differential;
* :func:`oracle_ratio_check` — online change count vs the DP-exact
  offline optimum;
* :func:`assert_certified` — raise with the fully rendered report, so a
  hypothesis shrink prints the violating slot.

They stay hypothesis-free, so any test can call them.
"""

from __future__ import annotations

import numpy as np

from repro.params import OfflineConstraints
from repro.sim.engine import run_multi_session, run_single_session
from repro.verify.oracle import min_changes_oracle
from repro.verify.report import CertificateReport
from tests.references import scalar_reference


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
        scalar_reference(policy_factory()), arrivals, **engine_kwargs
    )
    return _trace_mismatch(bulk, scalar, _SINGLE_ARRAYS)


def vector_mismatch_multi(
    policy_factory, arrivals: np.ndarray, **engine_kwargs
) -> str | None:
    """Multi-session bulk/scalar differential (see the single variant)."""
    bulk = run_multi_session(policy_factory(), arrivals, **engine_kwargs)
    scalar = run_multi_session(
        scalar_reference(policy_factory()), arrivals, **engine_kwargs
    )
    return _trace_mismatch(bulk, scalar, _MULTI_ARRAYS)


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
