"""Fault plans inside policy-quiet slices: bit-identity against the all-scalar run.

A :class:`LinkDegradation` window changes only what the wire serves and an
:class:`IngressDrop` only how many bits the policy is handed, so a faulted
stretch is as policy-quiet as a fault-free one and a slice runs through it:
the policy and the queue see ``offered - offered * (1 - keep)``, the queue
serves at ``allocation * capacity`` and the recorder gets the offered bits,
``0 + offered * (1 - keep)`` dropped and the per-slot effective bandwidth.
Every recorded float must equal the all-scalar run's.  Windows below start
and end on slice, galloping-window and ``feed``/``step`` edges, overlap,
cut the wire to 0, hold RESET drains and reach into the drain tail;
hypothesis budgets follow ``REPRO_FUZZ_EXAMPLES``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.baselines import StaticAllocator
from repro.core.single_session import SingleSessionOnline
from repro.faults import FaultPlan, IngressDrop, LinkDegradation
from repro.sim import vector
from repro.sim.engine import run_single_session
from repro.sim.recorder import SingleSessionRecorder
from repro.sim.vector import EngineState
from tests.references import scalar_reference
from tests.sim.test_slices import _assert_identical, _bursty, _policy, _reset_heavy
from tests.strategies import FUZZ_EXAMPLES, seeds

_SETTINGS = settings(max_examples=FUZZ_EXAMPLES, deadline=None)

#: ``D_O`` of :func:`_policy`.
OFFLINE_DELAY = 8


def _both(arrivals, plan, policy=_policy, **kwargs):
    """The sliced and the all-scalar trace of one faulted run."""
    return (
        run_single_session(policy(), arrivals, faults=plan, **kwargs),
        run_single_session(scalar_reference(policy()), arrivals, faults=plan, **kwargs),
    )


def _events(trace) -> list[int]:
    """Slots where the policy acted: the slice boundaries of a run."""
    return sorted({c.t for c in trace.changes} | set(trace.resets) | set(trace.stage_starts))


@pytest.fixture
def faulted_blocks(monkeypatch) -> list:
    """``(length, effective, dropped)`` of every bulk commit in the test."""
    blocks = []
    original = SingleSessionRecorder.record_keepup_block

    def logging(self, arrivals, allocation, delivered, backlog, dropped=0.0, effective=None):
        blocks.append((len(arrivals), effective, dropped))
        return original(self, arrivals, allocation, delivered, backlog, dropped, effective)

    monkeypatch.setattr(SingleSessionRecorder, "record_keepup_block", logging)
    return blocks


class TestDegradationEdges:
    """Windows that start or end on, just before and just after an edge."""

    @pytest.mark.parametrize("shift", [-1, 0, 1])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_windows_on_slice_edges(self, seed, shift):
        arrivals = _bursty(seed, 2500)
        events = _events(run_single_session(scalar_reference(_policy()), arrivals))
        assert len(events) > 6
        windows = [
            LinkDegradation(max(0, a + shift), max(0, a + shift) + max(2, b - a), 0.5)
            for a, b in zip(events[1::3], events[2::3])
        ]
        _assert_identical(*_both(arrivals, FaultPlan(windows)))

    @pytest.mark.parametrize("shift", [-1, 0, 1])
    def test_windows_on_gallop_edges(self, shift):
        # The galloping search from a slice start at ``s`` tries windows
        # ending at s + 32, s + 96, s + 224, ...
        arrivals = _bursty(7, 3000)
        events = _events(run_single_session(scalar_reference(_policy()), arrivals))
        edges = []
        for start in events[:12]:
            width, at = vector._FIRST_WINDOW, start + 1
            for _ in range(4):
                at += width
                width *= 2
                edges.append(at + shift)
        windows = [LinkDegradation(e, e + 17, 0.25) for e in edges if e >= 0]
        _assert_identical(*_both(arrivals, FaultPlan(windows)))

    @_SETTINGS
    @given(seed=seeds, first_window=st.integers(1, 9))
    def test_small_first_windows(self, seed, first_window):
        # Short galloping windows walk the kernel slot by slot: windows
        # land inside, on and across them.
        arrivals = _bursty(seed % 1000, 1200)
        rng = np.random.default_rng(seed)
        windows = [
            LinkDegradation(int(t0), int(t0) + int(rng.integers(1, 40)), float(rng.uniform(0.1, 0.9)))
            for t0 in rng.integers(0, 1200, size=8)
        ]
        previous = vector._FIRST_WINDOW
        vector._FIRST_WINDOW = first_window
        try:
            _assert_identical(*_both(arrivals, FaultPlan(windows, seed=seed)))
        finally:
            vector._FIRST_WINDOW = previous

    @_SETTINGS
    @given(
        seed=seeds,
        feeds=st.lists(st.integers(1, 3000), min_size=1, max_size=6),
        steps=st.lists(st.integers(1, 3000), min_size=1, max_size=8),
    )
    def test_windows_on_feed_and_step_edges(self, seed, feeds, steps):
        arrivals = _bursty(seed, sum(feeds))
        feed_edges = np.cumsum(feeds)[:-1].tolist()
        windows = [LinkDegradation(e, e + 25, 0.4) for e in feed_edges]
        windows += [LinkDegradation(max(0, e - 25), e, 0.7) for e in feed_edges]
        plan = FaultPlan(windows + [IngressDrop(p=0.05, fraction=0.6)], seed=seed)
        reference = run_single_session(scalar_reference(_policy()), arrivals, faults=plan)
        state = EngineState(_policy(), closed=False, faults=plan)
        at = 0
        for i, size in enumerate(feeds):
            state.feed(arrivals[at : at + size])
            at += size
            state.step(steps[i % len(steps)])
        state.close()
        state.run()
        _assert_identical(state.finalize(), reference)


class TestDegradationShapes:
    def test_overlapping_windows_and_a_dead_wire(self):
        arrivals = _bursty(11, 3000)
        plan = FaultPlan(
            [
                LinkDegradation(100, 900, 0.5),
                LinkDegradation(400, 1300, 0.0),
                LinkDegradation(450, 470, 0.7),
                LinkDegradation(1250, 2100, 0.3),
                LinkDegradation(1900, 2000, 0.9),
            ]
        )
        sliced, scalar = _both(arrivals, plan)
        assert (sliced.effective[:3000] == 0.0).sum() > 100
        _assert_identical(sliced, scalar)

    def test_reset_drains_inside_a_window(self):
        arrivals = _reset_heavy(4, 6000)
        scalar = run_single_session(scalar_reference(_policy()), arrivals)
        windows = [LinkDegradation(max(0, t - 20), t + 200, 0.6) for t in scalar.resets[::2]]
        assert windows
        sliced, scalar = _both(arrivals, FaultPlan(windows))
        in_window = [t for t in sliced.resets if any(w.active(t + 1) for w in windows)]
        assert in_window, "some RESET drain must run inside a window"
        _assert_identical(sliced, scalar)

    def test_drain_tail_under_degradation(self):
        arrivals = _bursty(6, 800)
        arrivals[-50:] = 90.0  # leave a backlog for the drain tail
        plan = FaultPlan([LinkDegradation(700, 2000, 0.35)])
        sliced, scalar = _both(arrivals, plan)
        assert sliced.slots > sliced.horizon
        assert (sliced.effective[sliced.horizon :] < sliced.allocation[sliced.horizon :]).any()
        _assert_identical(sliced, scalar)

    @_SETTINGS
    @given(seed=seeds, factor=st.sampled_from([0.0, 0.3, 0.99]))
    def test_static_allocator(self, seed, factor):
        arrivals = _bursty(seed, 1500)
        plan = FaultPlan(
            [LinkDegradation(200, 700, factor), IngressDrop(p=0.1, fraction=0.5)], seed=seed
        )
        _assert_identical(
            *_both(arrivals, plan, policy=lambda: StaticAllocator(7.0), drain=False)
        )


class TestIngressDrops:
    @pytest.mark.parametrize("fraction", [0.3, 1.0])
    def test_drops_on_zero_arrival_slots(self, fraction):
        rng = np.random.default_rng(2)
        arrivals = np.where(rng.random(4000) < 0.5, 0.0, rng.uniform(0.0, 30.0, 4000))
        plan = FaultPlan([IngressDrop(p=0.3, fraction=fraction)], seed=5)
        keep = plan.ingress_factors(0, len(arrivals))
        assert ((keep < 1.0) & (arrivals == 0.0)).sum() > 100
        sliced, scalar = _both(arrivals, plan)
        assert sliced.dropped.sum() > 0.0
        _assert_identical(sliced, scalar)

    @_SETTINGS
    @given(seed=seeds, p=st.sampled_from([0.01, 0.2, 0.9]), horizon=st.integers(1, 3000))
    def test_drops_with_degradation(self, seed, p, horizon):
        arrivals = _bursty(seed, 2000)
        plan = FaultPlan(
            [IngressDrop(p=p, fraction=0.5), LinkDegradation(300, 1400, 0.45)], seed=seed
        )
        _assert_identical(*_both(arrivals, plan))
        # A window scaled to the horizon, from 1 to 3000 slots.
        arrivals = _bursty(seed, horizon)
        plan = FaultPlan(
            [
                LinkDegradation(horizon // 4, horizon // 2 + 1, 0.3),
                IngressDrop(p=0.2, fraction=0.7),
            ],
            seed=seed,
        )
        _assert_identical(*_both(arrivals, plan))


class TestFaultedSlices:
    def test_faulted_blocks_outlast_the_offline_delay(self, faulted_blocks):
        arrivals = _bursty(5, 20_000)
        plan = FaultPlan(
            [LinkDegradation(2000, 9000, 0.5), IngressDrop(p=0.03, fraction=1.0)], seed=1
        )
        trace = run_single_session(_policy(), arrivals, faults=plan)
        degraded = [
            n for n, effective, _ in faulted_blocks
            if np.ndim(effective) and (effective < trace.allocation.max()).any()
        ]
        dropping = [n for n, _, dropped in faulted_blocks if np.ndim(dropped) and dropped.any()]
        assert max(degraded) > OFFLINE_DELAY
        assert max(dropping) > OFFLINE_DELAY
        assert sum(n for n, _, _ in faulted_blocks) > 0.9 * trace.horizon

    def test_fault_free_blocks_record_constants(self, faulted_blocks):
        run_single_session(_policy(), _bursty(5, 3000))
        assert faulted_blocks
        assert all(np.ndim(effective) == 0 and dropped == 0.0 for _, effective, dropped in faulted_blocks)
