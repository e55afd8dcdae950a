"""The modified single-session algorithm of Theorem 7 (reconstruction).

Theorem 7 claims a variant of Figure 3 with delay ``O(D_O)``, utilization
``Ω(U_O)``, and only ``O(log(1/U_O))`` bandwidth changes per offline change.
Its construction appears only in the unpublished full version; what the
conference paper gives is the key observation it is built on:

    within any stage, for ``t >= ts + W``,
    ``high(t) / low(t) <= (W + D_O) / (U_O * W) <= 2 / U_O``,

because the window ``(t - W, t]`` is simultaneously a utilization upper
bound (``high <= IN / (U_O * W)``) and a delay lower bound
(``low >= IN / (W + D_O)``).  Hence once a stage is ``W`` slots old, the
feasible band spans a factor of at most ``2 / U_O``, and a power-of-two
ladder can only be climbed ``log2(2 / U_O) + O(1)`` more times before the
stage must end.

Our reconstruction handles the young-stage window (``t < ts + W``, where
``high = B_A`` gives no band) with a *coarser geometric ladder* of base
``max(2, 1/U_O)``:

* changes while the stage is young: at most ``log_{1/U_O}(B_A) + 1``;
* changes after the stage matures: at most ``log2(2/U_O) + O(1)``
  (the paper's observation, enforced by the band above);
* delay: unchanged — the allocation still dominates ``low(t)``, so Claim 2
  and Lemma 3 go through verbatim (``D_A = 2 * D_O``);
* utilization: during the young window the allocation may overshoot
  ``low`` by a factor ``1/U_O`` instead of 2, costing a factor ``Θ(U_O)``
  in the guarantee for windows that end inside a young stage — the
  documented trade of this reconstruction.  Experiment E-T7 measures the
  realized utilization alongside the change counts.

With ``U_O >= 1/2`` the coarse base degenerates to 2 and the algorithm
coincides with Figure 3.

The decisions run on Figure 3's stage kernel.  The kernel tests
``low(t)`` against a rung, and the target exceeds the held allocation
exactly when ``low(t)`` passes the largest value of the *current* grid at
or below it.  While the stage is young that is the coarse rung itself;
at the slot the stage matures the rung is re-installed on the fine grid,
and the allocation climbs at once when that rung is already passed.
"""

from __future__ import annotations

import math

from repro.core.powers import GeometricQuantizer, Quantizer
from repro.core.single_session import SingleSessionOnline


class ModifiedSingleSessionOnline(SingleSessionOnline):
    """Theorem 7 variant: coarse ladder while young, fine ladder after.

    Args:
        max_bandwidth: ``B_A`` (power of two).
        offline_delay: ``D_O``.
        offline_utilization: ``U_O``; also sets the coarse ladder base
            ``max(2, 1/U_O)``.
        window: ``W >= D_O``.
        quantizer: the mature-stage quantizer (default: powers of two).
    """

    def __init__(
        self,
        max_bandwidth: float,
        offline_delay: int,
        offline_utilization: float,
        window: int,
        quantizer: Quantizer | None = None,
        name: str = "thm7",
    ):
        super().__init__(
            max_bandwidth=max_bandwidth,
            offline_delay=offline_delay,
            offline_utilization=offline_utilization,
            window=window,
            quantizer=quantizer,
            name=name,
        )
        self.early_quantizer = GeometricQuantizer(max(2.0, 1.0 / offline_utilization))

    def _grid(self) -> Quantizer:
        if self._kernel.slots_seen <= self.window:
            # Young stage: high(t) = B_A constrains nothing yet; climb the
            # coarse ladder so a burst of any size costs O(log_base B_A)
            # changes instead of O(log2 B_A).
            return self.early_quantizer
        # Mature stage: the band high/low <= 2/U_O caps further climbs.
        return self.quantizer

    def decide(self, t: int, arrivals: float, backlog: float) -> float:
        bandwidth = super().decide(t, arrivals, backlog)
        if self._in_stage and self._kernel.slots_seen == self.window + 1:
            # The stage matured this slot: the ladder moves to the fine grid.
            rung = self._fine_floor(self.link.requested)
            if self._kernel.set_rung(rung, self.headroom):
                self._set(t, self._climb())
                bandwidth = self.link.bandwidth
        return bandwidth

    def _fine_floor(self, allocation: float) -> float:
        """The largest fine-grid value at or below ``allocation``."""
        fine = self.quantizer
        if fine(allocation) == allocation:
            return allocation
        # Walk up from the lowest positive rung.
        rung, g = 0.0, fine(math.ulp(0.0))
        while g < allocation:
            rung, g = g, fine(math.nextafter(g, math.inf))
        return rung
