"""Ablation variants of the single-session algorithm.

These are *not* in the paper; they isolate individual design decisions of
Figure 3 so the ablation experiments (E-ABL-*) can show each one earns its
keep:

* :class:`EagerResetSingleSession` — skips the RESET drain-wait: the new
  stage's envelope starts immediately after ``high < low`` while the old
  backlog is flushed at ``B_A`` alongside.  Saves the idle wait but starts
  stages with a dirty queue, so Claim 2's clean induction no longer
  applies; the trace's delay histogram shows how much is actually lost.
* :class:`NonMonotoneSingleSession` — allows the allocation to *drop* to
  the quantized ``low`` mid-stage instead of only rising.  Better
  utilization on falling demand, but every drop is an extra change and
  the Lemma 1 per-stage bound doubles.
"""

from __future__ import annotations

from repro.core.single_session import SingleSessionOnline
from repro.network.queue import EPSILON


class EagerResetSingleSession(SingleSessionOnline):
    """Figure 3 without the RESET drain-wait (ablation).

    On ``high < low`` the envelope restarts at the very next slot; while
    any pre-reset backlog remains the allocation is held at ``B_A``
    (flushing), then drops to the quantized ``low`` of the already-running
    new stage.
    """

    def __init__(self, *args, **kwargs):
        kwargs.setdefault("name", "fig3-eager")
        super().__init__(*args, **kwargs)
        self._flushing = False

    def decide(self, t: int, arrivals: float, backlog: float) -> float:
        if not self._in_stage:
            # Eager restart: open the stage immediately, dirty queue and all.
            self._start_stage(t)
            self._flushing = backlog > EPSILON
        low, high = self._envelope.push(arrivals)
        if high < low:
            self._end_stage(t)
            self._set(t, self.max_bandwidth)
            return self.link.bandwidth
        if self._flushing:
            if backlog > EPSILON:
                self._set(t, self.max_bandwidth)
                return self.link.bandwidth
            # Old backlog gone: fall through to normal stage tracking.
            self._flushing = False
            self._set(t, self._stage_target(low))
            return self.link.bandwidth
        target = self._stage_target(low)
        if self.link.bandwidth < target:
            self._set(t, target)
        return self.link.bandwidth


class NonMonotoneSingleSession(SingleSessionOnline):
    """Figure 3 with in-stage decreases allowed (ablation).

    Tracks ``quantize(low)`` in both directions.  Because ``low`` is
    monotone within a stage this only differs right after a stage opens at
    a high ``B_A`` flush or when headroom quantization overshoots; it is
    mainly useful with ``headroom > 1`` where the paper's never-decrease
    rule forces sustained over-allocation.
    """

    def __init__(self, *args, **kwargs):
        kwargs.setdefault("name", "fig3-nonmonotone")
        super().__init__(*args, **kwargs)

    def decide(self, t: int, arrivals: float, backlog: float) -> float:
        if not self._in_stage and backlog <= EPSILON:
            self._start_stage(t)
            low, _ = self._envelope.push(arrivals)
            self._set(t, self._stage_target(low))
            return self.link.bandwidth
        if self._in_stage:
            low, high = self._envelope.push(arrivals)
            if high < low:
                self._end_stage(t)
                self._set(t, self.max_bandwidth)
                return self.link.bandwidth
            target = self._stage_target(low)
            floor = (backlog + arrivals) / self.online_delay
            # Keep Claim 2's q <= B * D_A by never dropping below the
            # drain floor.
            self._set(t, max(target, min(self.max_bandwidth, floor)))
            return self.link.bandwidth
        self._set(t, self.max_bandwidth)
        return self.link.bandwidth
