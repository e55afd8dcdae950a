"""Stateful hypothesis testing of the bit queue against a reference model.

A :class:`RuleBasedStateMachine` drives push/serve/drain operations in
arbitrary interleavings and checks the queue against a simple list-based
reference after every step — catching ordering, conservation, and
bookkeeping bugs that example-based tests miss.
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.network.queue import EPSILON, BitQueue


class QueueModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.queue = BitQueue("dut")
        self.shadow: list[tuple[int, float]] = []  # (arrival, bits)
        self.clock = 0
        self.total_in = 0.0
        self.total_out = 0.0

    @rule(bits=st.floats(min_value=0, max_value=100))
    def push(self, bits):
        self.queue.push(self.clock, bits)
        if bits > EPSILON:
            # Same-slot pushes share one chunk, as in the queue.
            if self.shadow and self.shadow[-1][0] == self.clock:
                self.shadow[-1] = (self.clock, self.shadow[-1][1] + bits)
            else:
                self.shadow.append((self.clock, bits))
            self.total_in += bits

    @rule(capacity=st.floats(min_value=0, max_value=150))
    def serve(self, capacity):
        histogram = {}
        served = self.queue.serve(self.clock, capacity, histogram)
        self.total_out += served
        # Drain the shadow model FIFO by the same amount, down to exact
        # zero: the queue serves sub-epsilon capacities too.
        remaining = served
        while remaining > 0.0 and self.shadow:
            arrival, bits = self.shadow[0]
            take = min(bits, remaining)
            remaining -= take
            if take >= bits - EPSILON:
                self.shadow.pop(0)
            else:
                self.shadow[0] = (arrival, bits - take)
        # Deliveries must be FIFO and delays non-negative.
        previous = -1
        for delay in histogram:  # delivery order
            assert self.clock - delay >= previous
            previous = self.clock - delay
            assert 0 <= delay <= self.clock

    @rule()
    def tick(self):
        self.clock += 1

    @rule()
    def move_to_fresh_queue(self):
        other = BitQueue("other")
        moved = self.queue.drain_to(other)
        assert moved == pytest.approx(
            sum(bits for _, bits in self.shadow), abs=1e-6
        )
        self.queue = other

    @invariant()
    def sizes_agree(self):
        assert self.queue.size == pytest.approx(
            sum(bits for _, bits in self.shadow), abs=1e-6
        )

    @invariant()
    def oldest_agrees(self):
        if self.shadow:
            assert self.queue.oldest_arrival == self.shadow[0][0]

    @invariant()
    def conservation(self):
        assert self.total_in == pytest.approx(
            self.total_out + self.queue.size, abs=1e-6
        )


TestQueueStateful = QueueModel.TestCase
TestQueueStateful.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
