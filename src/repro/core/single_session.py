"""The single-session online algorithm of Figure 3 (Section 2).

The algorithm works in *stages*, each preceded by a RESET:

* **RESET** — allocate the maximum bandwidth ``B_A`` until the queue is
  empty, then start a new stage.
* **STAGE** — each slot compute ``low(t)`` (the delay lower bound) and
  ``high(t)`` (the utilization upper bound) on the bandwidth a constant
  offline allocation would need.  If ``high(t) < low(t)`` the offline
  algorithm must have changed its allocation during the stage: end the
  stage and RESET.  Otherwise allocate the smallest power of two that is at
  least ``low(t)``, never decreasing within the stage.

Guarantees (Theorem 6): maximum bandwidth ``B_A``, delay ``D_A = 2·D_O``,
local utilization ``U_A = U_O / 3`` over some window of at most
``W + 5·D_O`` slots, and at most ``O(log B_A)`` bandwidth changes per
offline change.

Discretization notes (see DESIGN.md §3): the stage officially begins at the
first slot whose carried-over backlog is zero; that slot's arrivals are the
stage's first arrivals, matching "whenever a stage is started the queue is
empty".  At stage start the allocation drops from ``B_A`` to the quantized
``low`` — the standard reading of "B_on is set to the smallest power of two
that is at least low(t)".

Both per-slot tests run on the multiply-form
:class:`~repro.core.stagekernel.StageKernel` (the same state the sliced
engine fast-forwards), so the quantizer must have a finite ``levels()``
bound: the rung ladder is walked grid point by grid point.
"""

from __future__ import annotations

from repro.core.allocator import BandwidthPolicy, check_arrival
from repro.core.powers import PowerOfTwoQuantizer, Quantizer
from repro.core.stagekernel import StageKernel
from repro.errors import ConfigError
from repro.network.link import CHANGE_EPSILON
from repro.network.queue import EPSILON
from repro.obs.runtime import count as obs_count


class SingleSessionOnline(BandwidthPolicy):
    """Figure 3: stage/RESET online allocator for one session.

    Args:
        max_bandwidth: ``B_A`` — must be a fixed point of the quantizer
            (a power of two for the default quantizer), as the paper assumes.
        offline_delay: ``D_O`` — the comparator's delay bound; the online
            delay guarantee is ``2 * offline_delay``.
        offline_utilization: ``U_O`` in (0, 1] — the comparator's local
            utilization floor; the online guarantee is ``U_O / 3``.
        window: ``W >= D_O`` — the local-utilization window.
        quantizer: allocation rounding rule (default: powers of two); it
            must have a finite ``levels()`` bound.
        headroom: multiply ``low(t)`` by this factor before quantizing
            (ablation knob; 1.0 = the paper's algorithm).  Larger headroom
            trades utilization for earlier ladder rungs.
    """

    def __init__(
        self,
        max_bandwidth: float,
        offline_delay: int,
        offline_utilization: float,
        window: int,
        quantizer: Quantizer | None = None,
        headroom: float = 1.0,
        name: str = "fig3",
    ):
        super().__init__(name=name, max_bandwidth=max_bandwidth)
        if window < offline_delay:
            raise ConfigError(
                f"the paper assumes W >= D_O; got W={window}, D_O={offline_delay}"
            )
        self.offline_delay = int(offline_delay)
        self.offline_utilization = float(offline_utilization)
        self.window = int(window)
        self.quantizer: Quantizer = quantizer or PowerOfTwoQuantizer()
        if abs(self.quantizer(max_bandwidth) - max_bandwidth) > 1e-12:
            raise ConfigError(
                f"B_A={max_bandwidth!r} must be on the quantizer grid "
                f"({self.quantizer!r})"
            )
        if headroom < 1.0:
            raise ConfigError(f"headroom must be >= 1, got {headroom!r}")
        self.headroom = float(headroom)
        self.online_delay = 2 * self.offline_delay
        self.online_utilization = self.offline_utilization / 3.0

        # A grid without a finite levels() bound has no ladder to walk.
        self.quantizer.levels(self.max_bandwidth)
        self._kernel = StageKernel(
            self.offline_delay,
            self.offline_utilization,
            self.window,
            self.max_bandwidth,
        )
        self._in_stage = False
        #: Per-stage change counts (diagnostics for the Lemma 1 bound).
        self.stage_change_counts: list[int] = []
        self._changes_this_stage = 0

    # -- stage machinery ---------------------------------------------------

    def _start_stage(self, t: int) -> None:
        self._in_stage = True
        if self.stage_starts:
            # Close the previous stage's accounting period, which spans
            # from its first slot through its RESET drain.
            self.stage_change_counts.append(self._changes_this_stage)
        self.stage_starts.append(t)
        self._changes_this_stage = 0
        obs_count("core." + self.link.name + ".stage_starts")

    def _end_stage(self, t: int) -> None:
        self._in_stage = False
        self.resets.append(t)
        obs_count("core." + self.link.name + ".resets")

    def _set(self, t: int, bandwidth: float) -> None:
        # Counted against the intent: under the signaling plane ``set``
        # reports only a change applied at once.
        link = self.link
        if abs(bandwidth - link.requested) > CHANGE_EPSILON:
            self._changes_this_stage += 1
        link.set(t, bandwidth)

    def _grid(self) -> Quantizer:
        """The grid the allocation ladder climbs."""
        return self.quantizer

    def _stage_target(self, low: float) -> float:
        """The in-stage allocation for the current ``low`` value."""
        return min(self.max_bandwidth, self._grid()(self.headroom * low))

    # -- the decision rule ---------------------------------------------------

    def decide(self, t: int, arrivals: float, backlog: float) -> float:
        """Figure 3 on the multiply-form stage kernel (O(1) per slot).

        The ladder and stage-end tests are threshold margins rather than
        materialized ``low(t)`` floats (see the ``stagekernel`` module
        docs).  The vectorized engine shares this kernel, which is what
        makes scalar and vector traces bit-identical.
        """
        check_arrival(arrivals)
        if not self._in_stage and backlog <= EPSILON:
            # RESET finished draining (or initial start): new stage opens
            # with an empty queue at this slot.
            self._start_stage(t)
            target = self._stage_target(self._kernel.start(arrivals))
            self._set(t, target)
            self._kernel.set_rung(target, self.headroom)
            return self.link.bandwidth

        if self._in_stage:
            end, rung = self._kernel.advance(arrivals)
            if end:
                # No constant offline bandwidth fits the whole stage: the
                # offline adversary changed at least once (Lemma 1).
                self._end_stage(t)
                self._set(t, self.max_bandwidth)
                return self.link.bandwidth
            if rung:
                self._set(t, self._climb())
            return self.link.bandwidth

        # Mid-RESET: hold B_A until the queue drains.
        self._set(t, self.max_bandwidth)
        return self.link.bandwidth

    def _climb(self) -> float:
        """Walk the allocation ladder up past the violated rung."""
        kernel = self._kernel
        return kernel.climb(
            self.link.requested,
            self._stage_target(kernel.current_low()),
            self._grid(),
            self.headroom,
        )

    # -- diagnostics ---------------------------------------------------------

    @property
    def low(self) -> float:
        """Current ``low(t)`` (0 outside a stage)."""
        if not self._in_stage:
            return 0.0
        return self._kernel.current_low()

    @property
    def high(self) -> float:
        """Current ``high(t)`` (``B_A`` outside a stage)."""
        if not self._in_stage:
            return self.max_bandwidth
        return self._kernel.high

    @property
    def max_changes_per_stage(self) -> int:
        """Largest observed per-stage change count (Lemma 1 diagnostics)."""
        counts = list(self.stage_change_counts)
        if self._changes_this_stage:
            counts.append(self._changes_this_stage)
        return max(counts, default=0)
