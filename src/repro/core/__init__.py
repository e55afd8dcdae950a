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
from repro.core.envelope import HighTracker, LowTracker, NaiveLowTracker
from repro.core.hull import MaxSlopeHull
from repro.core.maxminfair import (
    MaxMinFairAllocator,
    quantize_up,
    water_fill,
    water_level,
)
from repro.core.modified_single import ModifiedSingleSessionOnline
from repro.core.opt_bruteforce import (
    iter_schedules,
    min_changes_bruteforce,
    min_changes_bruteforce_multi,
)
from repro.core.offline import (
    StageCertificate,
    constant_offline_schedule,
    constructive_offline_via_online,
    stage_certificate,
    stage_lower_bound,
)
from repro.core.offline_multi import (
    MultiStageCertificate,
    equal_split_offline,
    multi_stage_certificate,
    multi_stage_lower_bound,
)
from repro.core.phased import PhasedMultiSession
from repro.core.prioritytier import PriorityTierAllocator, tier_allocate
from repro.core.powers import (
    ClampedQuantizer,
    FractionalPowerOfTwoQuantizer,
    GeometricQuantizer,
    IdentityQuantizer,
    PowerOfTwoQuantizer,
    next_power_of_two,
)
from repro.core.single_session import SingleSessionOnline

__all__ = [
    "BandwidthPolicy",
    "ClampedQuantizer",
    "iter_schedules",
    "min_changes_bruteforce",
    "min_changes_bruteforce_multi",
    "CombinedMultiSession",
    "ContinuousMultiSession",
    "EpochDrivenMultiSession",
    "EqualSplitMultiSession",
    "EwmaAllocator",
    "FractionalPowerOfTwoQuantizer",
    "GeometricQuantizer",
    "HighTracker",
    "IdentityQuantizer",
    "LowTracker",
    "MaxMinFairAllocator",
    "MaxSlopeHull",
    "ModifiedSingleSessionOnline",
    "MultiSessionPolicy",
    "MultiStageCertificate",
    "NaiveLowTracker",
    "PerSlotAllocator",
    "PeriodicRenegotiationAllocator",
    "PhasedMultiSession",
    "PowerOfTwoQuantizer",
    "PriorityTierAllocator",
    "SingleSessionOnline",
    "StageCertificate",
    "StaticAllocator",
    "StoreAndForwardMultiSession",
    "constant_offline_schedule",
    "constructive_offline_via_online",
    "equal_split_offline",
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
