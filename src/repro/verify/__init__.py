"""Verification layer: theorem certificates, offline oracle, fuzzing.

The package is the repo's *second implementation* of the paper's
guarantees: :mod:`repro.verify.certificates` replays recorded traces and
re-derives every bounded series from scratch (no imports from the policy
code in :mod:`repro.core`), :mod:`repro.verify.oracle` computes exact
offline change-count optima by DP, :mod:`repro.verify.scenarios` maps
every registered experiment to certifiable traces, and
:mod:`repro.verify.differential` runs an engine configuration and
certifies its trace in one step (the adversary's scoring hook and the
differential tests' harness).
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
    replay_fifo_delays,
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
    "replay_fifo_delays",
    "replay_fifo_service",
    "session_sums",
    "single_session_bounds",
    "switch_count",
]
