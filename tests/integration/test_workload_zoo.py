"""Breadth matrix: the traffic generators × every allocator family.

These runs make no feasibility assumptions, so they only assert the
unconditional properties — no crash, bit conservation, bandwidth caps,
Claim 2 — across the full workload zoo.  The goal is breadth: every
generator exercises every policy's code paths at least once.
"""

import numpy as np
import pytest

from repro.core.baselines import (
    EwmaAllocator,
    PerSlotAllocator,
    PeriodicRenegotiationAllocator,
    StaticAllocator,
)
from repro.core.modified_single import ModifiedSingleSessionOnline
from repro.core.single_session import SingleSessionOnline
from repro.sim.engine import run_single_session
from repro.traffic import (
    CompoundPoisson,
    MarkovModulatedPoisson,
    MpegVbr,
    OnOffBursts,
    ParetoBursts,
    PoissonArrivals,
    SelfSimilarAggregate,
    figure1_demand,
)
from repro.traffic.base import ArrivalProcess
from repro.verify.certificates import claim2_margins, claim2_violations
from tests.fakes import Constant

B_A = 256.0
D_O = 4
U_O = 0.25
W = 8
HORIZON = 600


class _Square(ArrivalProcess):
    """``high`` bits for the first half of every ``period``, ``low`` after."""

    def __init__(self, low: float, high: float, period: int):
        self.low, self.high, self.period = low, high, period

    def generate(self, horizon: int, rng: np.random.Generator) -> np.ndarray:
        high = np.arange(horizon) % self.period < self.period / 2
        return np.where(high, self.high, self.low)


class _TokenBucket(ArrivalProcess):
    """``inner`` through a ``(rate, burst)`` token bucket that holds the
    excess back, so every window of ``w`` slots carries at most
    ``rate·w + burst`` bits."""

    def __init__(self, inner: ArrivalProcess, rate: float, burst: float):
        self.inner, self.rate, self.burst = inner, rate, burst

    def generate(self, horizon: int, rng: np.random.Generator) -> np.ndarray:
        tokens, backlog, out = self.burst, 0.0, []
        for bits in self.inner.generate(horizon, rng):
            tokens += self.rate
            backlog += bits
            sent = min(backlog, tokens)
            tokens = min(tokens - sent, self.burst)
            backlog -= sent
            out.append(sent)
        return np.asarray(out)


WORKLOADS = {
    "constant": Constant(6.0),
    "poisson": PoissonArrivals(6.0),
    "compound": CompoundPoisson(burst_rate=0.3, mean_burst=15.0),
    "onoff": OnOffBursts(on_rate=20.0, mean_on=15, mean_off=25, jitter=0.3),
    "mmpp": MarkovModulatedPoisson.bursty(low=2.0, high=25.0),
    "vbr": MpegVbr(mean_rate=10.0),
    "pareto": ParetoBursts(
        burst_prob=0.08, mean_burst=40.0, shape=1.6, cap=B_A * D_O
    ),
    "selfsimilar": SelfSimilarAggregate(sources=12, rate_per_source=1.5),
    "square": _Square(low=2.0, high=30.0, period=40),
    "figure1": figure1_demand(mean_rate=8.0),
    "shaped": _TokenBucket(ParetoBursts(0.2, 60.0, shape=1.5), rate=20.0, burst=80.0),
}

POLICIES = {
    "fig3": lambda: SingleSessionOnline(B_A, D_O, U_O, W),
    "thm7": lambda: ModifiedSingleSessionOnline(B_A, D_O, U_O, W),
    "static": lambda: StaticAllocator(B_A),
    "per-slot": lambda: PerSlotAllocator(B_A),
    "periodic": lambda: PeriodicRenegotiationAllocator(B_A, period=16),
    "ewma": lambda: EwmaAllocator(B_A, drain_delay=D_O),
}

#: Policies whose Claim 2 analogue (allocation >= backlog / 2·D_O) holds
#: unconditionally.  The envelope-driven family guarantees it by design;
#: heuristics do not.
CLAIM2_POLICIES = {"fig3", "thm7"}


@pytest.mark.parametrize("workload_name", sorted(WORKLOADS))
@pytest.mark.parametrize("policy_name", sorted(POLICIES))
def test_policy_on_workload(workload_name, policy_name):
    arrivals = WORKLOADS[workload_name].materialize(HORIZON, seed=13)
    # Stay inside the Claim 9 envelope so the envelope algorithms' queue
    # invariant applies; the zoo is about breadth, not overload (overload
    # has its own failure-injection suite).
    arrivals = np.minimum(arrivals, B_A * (1 + D_O) / 2)
    policy = POLICIES[policy_name]()
    trace = run_single_session(policy, arrivals, max_drain_slots=200_000)
    if policy_name in CLAIM2_POLICIES:
        margin, queue = claim2_margins(trace, online_delay=2 * D_O)
        assert claim2_violations(margin, queue).size == 0
    assert trace.total_delivered == pytest.approx(trace.total_arrived, rel=1e-9)
    assert trace.max_allocation <= B_A + 1e-9
    assert (trace.allocation >= 0).all()
    assert (trace.backlog >= 0).all()
