"""Workload substrate: synthetic sources, transforms, certified generators."""

from repro.traffic.adversary import (
    TightTrackingAllocator,
    doubling_stream,
    sawtooth_stream,
)
from repro.traffic.base import ArrivalProcess, make_rng
from repro.traffic.feasible import (
    FeasibleStream,
    generate_feasible_stream,
    make_profile,
    profile_switch_count,
)
from repro.traffic.mmpp import MarkovModulatedPoisson
from repro.traffic.multi import (
    MultiSessionWorkload,
    generate_multi_feasible,
    independent_processes_workload,
)
from repro.traffic.onoff import OnOffBursts
from repro.traffic.pareto import ParetoBursts
from repro.traffic.poisson import CompoundPoisson, PoissonArrivals
from repro.traffic.spikes import Spikes, figure1_demand
from repro.traffic.diurnal import Diurnal, staggered_diurnal_sessions
from repro.traffic.selfsimilar import SelfSimilarAggregate
from repro.traffic.transforms import Jittered, Superpose
from repro.traffic.vbr import MpegVbr

__all__ = [
    "ArrivalProcess",
    "CompoundPoisson",
    "Diurnal",
    "FeasibleStream",
    "Jittered",
    "MarkovModulatedPoisson",
    "MpegVbr",
    "MultiSessionWorkload",
    "OnOffBursts",
    "ParetoBursts",
    "PoissonArrivals",
    "SelfSimilarAggregate",
    "Spikes",
    "Superpose",
    "TightTrackingAllocator",
    "doubling_stream",
    "figure1_demand",
    "generate_feasible_stream",
    "generate_multi_feasible",
    "independent_processes_workload",
    "make_profile",
    "make_rng",
    "profile_switch_count",
    "sawtooth_stream",
    "staggered_diurnal_sessions",
]
