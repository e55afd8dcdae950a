"""Competitive Dynamic Bandwidth Allocation (PODC 1998) — reproduction.

A discrete-time simulation library implementing the online bandwidth
allocation algorithms of Bar-Noy, Mansour and Schieber together with the
queueing substrate, workload generators, offline comparators, metrics and
experiment harnesses needed to validate every theorem in the paper.

Quickstart::

    import numpy as np
    from repro import SingleSessionOnline, run_single_session

    rng = np.random.default_rng(0)
    arrivals = rng.poisson(6, size=2000).astype(float)
    policy = SingleSessionOnline(
        max_bandwidth=64, offline_delay=8, offline_utilization=0.5, window=16
    )
    trace = run_single_session(policy, arrivals)
    print(trace.max_delay, trace.change_count, trace.completed_stages)
"""

from repro.core import (
    BandwidthPolicy,
    CombinedMultiSession,
    ContinuousMultiSession,
    EqualSplitMultiSession,
    EwmaAllocator,
    ModifiedSingleSessionOnline,
    MultiSessionPolicy,
    PerSlotAllocator,
    PeriodicRenegotiationAllocator,
    PhasedMultiSession,
    SingleSessionOnline,
    StaticAllocator,
    StoreAndForwardMultiSession,
    multi_stage_lower_bound,
    stage_lower_bound,
)
from repro.errors import (
    ConfigError,
    ExperimentError,
    FeasibilityError,
    ReproError,
    SignalingError,
    SimulationError,
)
from repro.faults import (
    FaultPlan,
    HeadroomPolicy,
    RetryPolicy,
    UnreliableLink,
    install_signaling,
)
from repro.params import OfflineConstraints, OnlineGuarantees
from repro.sim import run_multi_session, run_single_session
from repro.version import __version__

__all__ = [
    "BandwidthPolicy",
    "CombinedMultiSession",
    "ConfigError",
    "ContinuousMultiSession",
    "EqualSplitMultiSession",
    "EwmaAllocator",
    "ExperimentError",
    "FaultPlan",
    "FeasibilityError",
    "HeadroomPolicy",
    "ModifiedSingleSessionOnline",
    "MultiSessionPolicy",
    "OfflineConstraints",
    "OnlineGuarantees",
    "PerSlotAllocator",
    "PeriodicRenegotiationAllocator",
    "PhasedMultiSession",
    "ReproError",
    "RetryPolicy",
    "SignalingError",
    "SimulationError",
    "SingleSessionOnline",
    "StaticAllocator",
    "StoreAndForwardMultiSession",
    "UnreliableLink",
    "__version__",
    "install_signaling",
    "multi_stage_lower_bound",
    "run_multi_session",
    "run_single_session",
    "stage_lower_bound",
]
