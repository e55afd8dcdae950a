"""Measurement: QoS metrics, feasibility checks, competitive ratios, tables."""

from repro.analysis.competitive import CompetitiveReport, bracket
from repro.analysis.feasibility import (
    FeasibilityReport,
    check_multi_against_profiles,
    constant_bandwidth_needed,
    fifo_serves_within,
    is_delay_feasible,
    profile_serves,
    profiles_serve,
    simulate_fifo_delay,
    window_utilizations,
)
from repro.analysis.metrics import (
    QosSummary,
    global_utilization,
    min_fixed_window_utilization,
    summarize_multi,
    summarize_single,
)
from repro.analysis.fairness import delay_fairness, jain_index, service_fairness
from repro.analysis.fitting import LinearFit, fit_linear, growth_exponent
from repro.analysis.pricing import CostBreakdown, PricingModel, cheapest
from repro.analysis.stages import StageBreakdown, stage_breakdown
from repro.analysis.report import (
    render_ascii_series,
    render_markdown_table,
    render_table,
)

__all__ = [
    "CompetitiveReport",
    "CostBreakdown",
    "PricingModel",
    "cheapest",
    "LinearFit",
    "fit_linear",
    "growth_exponent",
    "delay_fairness",
    "jain_index",
    "service_fairness",
    "FeasibilityReport",
    "QosSummary",
    "bracket",
    "check_multi_against_profiles",
    "constant_bandwidth_needed",
    "fifo_serves_within",
    "global_utilization",
    "is_delay_feasible",
    "min_fixed_window_utilization",
    "profile_serves",
    "profiles_serve",
    "render_ascii_series",
    "render_markdown_table",
    "render_table",
    "StageBreakdown",
    "stage_breakdown",
    "simulate_fifo_delay",
    "summarize_multi",
    "summarize_single",
    "window_utilizations",
]
