"""StageKernel unit tests: scan ≡ advance, current_low ≡ the hull's low.

The kernel has two consumers — the scalar decision rule (one
:meth:`advance` per slot) and the vectorized engine (:meth:`scan` over
chunks) — and its contract is that they see the exact same floats.
These tests drive both against each other and against the reference
envelope trackers.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.stagekernel import StageKernel
from tests.strategies import FUZZ_EXAMPLES, arrival_streams
from tests.references import HighTracker, NaiveLowTracker

_SETTINGS = settings(max_examples=FUZZ_EXAMPLES, deadline=None)


def _kernel() -> StageKernel:
    return StageKernel(
        offline_delay=8, utilization=0.25, window=16, max_bandwidth=64.0
    )


def _state(kernel: StageKernel) -> tuple:
    return (
        kernel.n,
        kernel.total,
        kernel.high,
        kernel._m_end,
        kernel._v_end,
        kernel._m_rung,
        kernel._v_rung,
        tuple(kernel._buf[: kernel.n + 1]),
    )


class TestScanAdvanceEquivalence:
    def _drive_pair(self, arrivals, rung=8.0):
        """One kernel via scan chunks, a twin via per-slot advance."""
        scan_kernel, step_kernel = _kernel(), _kernel()
        for kernel in (scan_kernel, step_kernel):
            kernel.start(float(arrivals[0]))
            kernel.set_rung(rung, 1.0)
        values = np.asarray(arrivals[1:], dtype=float)
        t = 0
        while t < len(values):
            taken = scan_kernel.scan(values[t : t + 100])
            for value in values[t : t + taken]:
                end, rung_viol = step_kernel.advance(float(value))
                assert not end and not rung_viol
            if taken < min(100, len(values) - t):
                # Event slot: both kernels step it scalar.
                end, rung_viol = step_kernel.advance(float(values[t + taken]))
                assert end or rung_viol
                scan_end, scan_rung = scan_kernel.advance(
                    float(values[t + taken])
                )
                assert (scan_end, scan_rung) == (end, rung_viol)
                assert _state(scan_kernel) == _state(step_kernel)
                return  # state at first event fully checked
            assert _state(scan_kernel) == _state(step_kernel)
            t += taken

        assert _state(scan_kernel) == _state(step_kernel)

    def test_calm_stream(self):
        rng = np.random.default_rng(3)
        self._drive_pair(rng.uniform(0.5, 4.0, 500))

    def test_piecewise_stream(self):
        rng = np.random.default_rng(5)
        self._drive_pair(np.repeat(rng.uniform(0.5, 6.0, 5), 100))

    def test_eventful_stream(self):
        rng = np.random.default_rng(7)
        self._drive_pair(rng.uniform(0.0, 12.0, 300), rung=4.0)

    @_SETTINGS
    @given(arrival_streams(max_slots=200, max_rate=16.0))
    def test_random_streams(self, arrivals):
        if len(arrivals) == 0:
            return
        self._drive_pair(arrivals)

    def test_scan_empty_chunk(self):
        kernel = _kernel()
        kernel.start(1.0)
        kernel.set_rung(8.0, 1.0)
        assert kernel.scan(np.array([])) == 0

    def test_scan_commits_nothing_on_immediate_event(self):
        kernel = _kernel()
        kernel.start(1.0)
        kernel.set_rung(2.0, 1.0)
        before = _state(kernel)
        # A slot far above the rung violates immediately: nothing commits.
        taken = kernel.scan(np.array([1000.0]))
        assert taken == 0
        assert _state(kernel) == before


class TestWalk:
    """``walk`` (advance slot by slot, event slot rolled back) commits what
    ``scan`` commits, and leaves the event slot to ``advance`` as it was."""

    @staticmethod
    def _full_state(kernel: StageKernel) -> tuple:
        return (*_state(kernel), kernel._prev_total)

    @_SETTINGS
    @given(
        arrivals=arrival_streams(max_slots=160, max_rate=24.0),
        rung=st.sampled_from([1.0, 2.0, 8.0, 64.0]),
        width=st.integers(1, 40),
    )
    def test_walk_matches_scan_and_advance(self, arrivals, rung, width):
        walked_k, scanned_k, stepped_k = kernels = (_kernel(), _kernel(), _kernel())
        for kernel in kernels:
            kernel.start(float(arrivals[0]))
            kernel.set_rung(rung, 1.0)
        values = np.asarray(arrivals[1:], dtype=float)
        t = 0
        while t < len(values):
            window = values[t : t + width]
            quiet = walked_k.walk(window.tolist())
            assert quiet == scanned_k.scan(window)
            for value in window[:quiet].tolist():
                assert stepped_k.advance(value) == (False, False)
            states = {self._full_state(kernel) for kernel in kernels}
            assert len(states) == 1
            t += quiet
            if quiet == len(window):
                continue
            # The rolled-back event slot reacts exactly as it did in walk.
            outcomes = {kernel.advance(float(values[t])) for kernel in kernels}
            assert len(outcomes) == 1
            end, climbed = outcomes.pop()
            assert end or climbed
            if end:
                return
            while rung < 64.0 and all(kernel.set_rung(rung, 1.0) for kernel in kernels):
                rung *= 2.0
            for kernel in kernels:
                kernel.set_rung(rung, 1.0)
            t += 1
        assert len({self._full_state(kernel) for kernel in kernels}) == 1

    def test_immediate_event_commits_nothing(self):
        kernel = _kernel()
        kernel.start(1.0)
        kernel.set_rung(2.0, 1.0)
        before = (*_state(kernel), kernel._prev_total)
        assert kernel.walk([1000.0, 1.0]) == 0
        assert (*_state(kernel), kernel._prev_total) == before

    def test_empty_window(self):
        kernel = _kernel()
        kernel.start(1.0)
        assert kernel.walk([]) == 0


class TestAgainstReferenceTrackers:
    def test_high_matches_tracker(self):
        rng = np.random.default_rng(11)
        kernel = _kernel()
        tracker = HighTracker(
            utilization=0.25, window=16, max_bandwidth=64.0
        )
        values = rng.uniform(0, 8, 120)
        kernel.start(float(values[0]))
        tracker.push(float(values[0]))
        kernel.set_rung(64.0, 1.0)
        for value in values[1:]:
            kernel.advance(float(value))
            tracker.push(float(value))
            assert kernel.high == tracker.high

    def test_current_low_matches_naive(self):
        rng = np.random.default_rng(13)
        kernel = _kernel()
        naive = NaiveLowTracker(8)
        values = rng.uniform(0, 8, 80)
        kernel.start(float(values[0]))
        naive.push(float(values[0]))
        kernel.set_rung(64.0, 1.0)
        assert kernel.current_low() == pytest.approx(naive.low, abs=1e-12)
        for value in values[1:]:
            kernel.advance(float(value))
            naive.push(float(value))
            assert kernel.current_low() == pytest.approx(naive.low, abs=1e-12)

    def test_start_low_is_exact_division(self):
        kernel = _kernel()
        low0 = kernel.start(18.0)
        assert low0 == 18.0 / 9.0  # C(1) / (D_O + 1), exactly


class TestRungSemantics:
    def test_set_rung_maxes_at_bandwidth(self):
        kernel = _kernel()
        kernel.start(1.0)
        assert not kernel.maxed
        kernel.set_rung(64.0, 1.0)
        assert kernel.maxed

    def test_maxed_kernel_skips_rung_test(self):
        kernel = _kernel()
        kernel.start(1.0)
        kernel.set_rung(64.0, 1.0)
        # Even huge arrivals cannot flag a rung violation once maxed.
        _, rung_viol = kernel.advance(1e6)
        assert not rung_viol

    def test_reset_clears_stage_state(self):
        kernel = _kernel()
        kernel.start(5.0)
        kernel.set_rung(2.0, 1.0)
        kernel.advance(7.0)
        kernel.reset()
        assert kernel.slots_seen == 0
        assert kernel.total == 0.0
        assert kernel.high == 64.0
        assert not kernel.maxed
