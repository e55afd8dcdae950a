"""The paper's algorithms: envelopes, online allocators, offline comparators."""

from repro.core.allocator import BandwidthPolicy, MultiSessionPolicy
from repro.core.baselines import (
    EqualSplitMultiSession,
    EwmaAllocator,
    PerSlotAllocator,
    PeriodicRenegotiationAllocator,
    StaticAllocator,
    StoreAndForwardMultiSession,
)
from repro.core.combined import CombinedMultiSession
from repro.core.continuous import ContinuousMultiSession
from repro.core.epoch import EpochDrivenMultiSession
from repro.core.envelope import LowTracker
from repro.core.hull import MaxSlopeHull
from repro.core.maxminfair import (
    MaxMinFairAllocator,
    quantize_up,
    water_fill,
    water_level,
)
from repro.core.modified_single import ModifiedSingleSessionOnline
from repro.core.offline import (
    StageCertificate,
    stage_certificate,
    stage_lower_bound,
)
from repro.core.offline_multi import (
    MultiStageCertificate,
    multi_stage_certificate,
    multi_stage_lower_bound,
)
from repro.core.phased import PhasedMultiSession
from repro.core.prioritytier import PriorityTierAllocator, tier_allocate
from repro.core.powers import (
    ClampedQuantizer,
    GeometricQuantizer,
    PowerOfTwoQuantizer,
    next_power_of_two,
)
from repro.core.single_session import SingleSessionOnline

__all__ = [
    "BandwidthPolicy",
    "ClampedQuantizer",
    "CombinedMultiSession",
    "ContinuousMultiSession",
    "EpochDrivenMultiSession",
    "EqualSplitMultiSession",
    "EwmaAllocator",
    "GeometricQuantizer",
    "LowTracker",
    "MaxMinFairAllocator",
    "MaxSlopeHull",
    "ModifiedSingleSessionOnline",
    "MultiSessionPolicy",
    "MultiStageCertificate",
    "PerSlotAllocator",
    "PeriodicRenegotiationAllocator",
    "PhasedMultiSession",
    "PowerOfTwoQuantizer",
    "PriorityTierAllocator",
    "SingleSessionOnline",
    "StageCertificate",
    "StaticAllocator",
    "StoreAndForwardMultiSession",
    "multi_stage_certificate",
    "multi_stage_lower_bound",
    "next_power_of_two",
    "quantize_up",
    "stage_certificate",
    "stage_lower_bound",
    "tier_allocate",
    "water_fill",
    "water_level",
]
