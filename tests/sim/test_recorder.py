"""Tests for trace recording and histogram helpers."""

import numpy as np
import pytest

from repro.network.link import BandwidthChange
from repro.network.queue import BitQueue
from repro.sim.recorder import (
    MultiSessionRecorder,
    SingleSessionRecorder,
    histogram_max_delay,
    histogram_quantile,
    merge_histograms,
)


class TestHistogramHelpers:
    def test_merge(self):
        merged = merge_histograms([{0: 1.0, 2: 3.0}, {2: 1.0, 5: 2.0}])
        assert merged == {0: 1.0, 2: 4.0, 5: 2.0}

    def test_merge_empty_list(self):
        assert merge_histograms([]) == {}

    def test_merge_empty_operands(self):
        assert merge_histograms([{}, {}]) == {}
        assert merge_histograms([{}, {1: 2.0}, {}]) == {1: 2.0}

    def test_merge_fully_overlapping(self):
        merged = merge_histograms([{4: 1.5, 9: 0.5}] * 3)
        assert merged == {4: 4.5, 9: 1.5}

    def test_merge_does_not_mutate_inputs(self):
        first, second = {2: 1.0}, {2: 3.0}
        merge_histograms([first, second])
        assert first == {2: 1.0} and second == {2: 3.0}

    def test_max_delay(self):
        assert histogram_max_delay({}) == 0
        assert histogram_max_delay({3: 1.0, 7: 0.5}) == 7

    def test_max_delay_of_merged_empties(self):
        assert histogram_max_delay(merge_histograms([{}, {}])) == 0

    def test_quantile(self):
        histogram = {0: 90.0, 10: 9.0, 50: 1.0}
        assert histogram_quantile(histogram, 0.5) == 0
        assert histogram_quantile(histogram, 0.95) == 10
        assert histogram_quantile(histogram, 1.0) == 50
        assert histogram_quantile({}, 0.9) == 0


class TestSingleSessionRecorder:
    def test_roundtrip(self):
        rec = SingleSessionRecorder()
        queue = BitQueue()
        queue.push(0, 5.0)
        rec.record(0, 5.0, 4.0, queue.serve(0, 4.0, rec.histogram), queue.size)
        rec.record(1, 0.0, 4.0, queue.serve(1, 4.0, rec.histogram), queue.size)
        trace = rec.finalize(
            changes=[BandwidthChange(t=0, old=0, new=4.0)],
            stage_starts=[0],
            resets=[],
            horizon=2,
        )
        assert trace.slots == 2
        assert trace.total_arrived == 5.0
        assert trace.total_delivered == 5.0
        assert trace.max_delay == 1
        assert trace.change_count == 1
        assert trace.completed_stages == 0
        assert trace.max_allocation == 4.0
        np.testing.assert_allclose(trace.backlog, [1.0, 0.0])


class TestMultiSessionRecorder:
    def test_roundtrip(self):
        rec = MultiSessionRecorder(2)
        rec.record(
            0,
            [3.0, 1.0],
            [2.0, 1.0],
            [0.5, 0.0],
            [2.0, 1.0],
            [1.0, 0.0],
            extra_allocation=1.5,
        )
        trace = rec.finalize(
            local_changes=[],
            extra_changes=[],
            stage_starts=[0],
            resets=[0],
            horizon=1,
            delay_histograms=[{0: 2.0}, {0: 1.0}],
        )
        assert trace.k == 2
        assert trace.slots == 1
        assert trace.total_arrived == 4.0
        assert trace.max_total_allocation == pytest.approx(2 + 1 + 0.5 + 1.5)
        assert trace.completed_stages == 1
        assert histogram_max_delay(trace.delay_histograms[0]) == 0
        assert trace.merged_delay_histogram == {0: 3.0}
