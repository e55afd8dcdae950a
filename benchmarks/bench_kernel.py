"""Engineering benchmarks: kernel throughput of the hot paths.

Not a paper artifact — these track the simulator's own performance so
regressions in the envelope trackers, queues, or run loops are visible:

* ``LowTracker`` (hull-based) pushes,
* FIFO queue push/serve cycles,
* single-session engine slots/second,
* multi-session engine slots/second at k=8.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.envelope import LowTracker
from repro.core.phased import PhasedMultiSession
from repro.core.single_session import SingleSessionOnline
from repro.network.queue import BitQueue
from repro.sim.engine import run_multi_session, run_single_session

RNG = np.random.default_rng(0)
STREAM = RNG.poisson(5, size=5000).astype(float)
MULTI = RNG.poisson(3, size=(2000, 8)).astype(float)


def test_low_tracker_hull(benchmark):
    def run():
        tracker = LowTracker(8)
        for bits in STREAM:
            tracker.push(float(bits))
        return tracker.low

    assert benchmark(run) > 0


def test_bit_queue_cycle(benchmark):
    def run():
        queue = BitQueue()
        histogram = {}
        delivered = 0.0
        for t, bits in enumerate(STREAM[:2000]):
            queue.push(t, float(bits))
            delivered += queue.serve(t, 5.0, histogram)
        return delivered

    assert benchmark(run) > 0


def test_single_session_engine(benchmark):
    def run():
        policy = SingleSessionOnline(
            max_bandwidth=64, offline_delay=8, offline_utilization=0.25, window=16
        )
        return run_single_session(policy, STREAM).total_delivered

    assert benchmark(run) > 0


def test_multi_session_engine_k8(benchmark):
    def run():
        policy = PhasedMultiSession(8, offline_bandwidth=48, offline_delay=8)
        return run_multi_session(policy, MULTI).total_delivered

    assert benchmark(run) > 0
