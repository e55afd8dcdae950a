"""Verification layer: theorem certificates and the offline oracle.

The package is the repo's *second implementation* of the paper's
guarantees: :mod:`repro.verify.certificates` replays recorded traces and
re-derives every bounded series from scratch,
:mod:`repro.verify.fairness` certifies the arena's epoch allocators, and
:mod:`repro.verify.oracle` computes exact offline change-count optima by
DP.

It imports nothing it checks: a module here imports from ``repro`` only
:mod:`repro.verify` itself, :mod:`repro.errors` and :mod:`repro.params`,
at module level or inside a function.  The code that runs an engine and
certifies its trace lives with its callers:
:mod:`repro.experiments.scenarios` (E-VER and ``repro verify <id>``) and
:mod:`repro.adversary.differential` (the adversary search).
"""

from repro.verify.certificates import (
    FifoService,
    TheoremBounds,
    best_window_utilizations,
    certify,
    certify_multi,
    certify_single,
    claim2_margins,
    claim2_violations,
    claim9_series,
    claim9_violations,
    combined_bounds,
    continuous_bounds,
    corollary4_slack,
    lindley_backlog,
    min_existential_window_utilization,
    peak,
    phased_bounds,
    raw_single_bounds,
    replay_fifo_service,
    session_sums,
    single_session_bounds,
    switch_count,
)
from repro.verify.fairness import certify_max_min_trace, certify_tier_trace
from repro.verify.oracle import (
    RATIO_FINITE,
    RATIO_NO_STATEMENT,
    RATIO_TRIVIAL,
    RATIO_UNBOUNDED,
    OracleResult,
    RatioVerdict,
    classify_ratio,
    default_levels,
    min_changes_oracle,
    ratio_rank_key,
)
from repro.verify.report import CertificateCheck, CertificateReport, Counterexample

__all__ = [
    "CertificateCheck",
    "CertificateReport",
    "Counterexample",
    "FifoService",
    "OracleResult",
    "RATIO_FINITE",
    "RATIO_NO_STATEMENT",
    "RATIO_TRIVIAL",
    "RATIO_UNBOUNDED",
    "RatioVerdict",
    "TheoremBounds",
    "best_window_utilizations",
    "certify",
    "certify_max_min_trace",
    "certify_multi",
    "certify_single",
    "certify_tier_trace",
    "claim2_margins",
    "claim2_violations",
    "claim9_series",
    "claim9_violations",
    "classify_ratio",
    "combined_bounds",
    "continuous_bounds",
    "corollary4_slack",
    "default_levels",
    "lindley_backlog",
    "min_changes_oracle",
    "min_existential_window_utilization",
    "peak",
    "phased_bounds",
    "ratio_rank_key",
    "raw_single_bounds",
    "replay_fifo_service",
    "session_sums",
    "single_session_bounds",
    "switch_count",
]
