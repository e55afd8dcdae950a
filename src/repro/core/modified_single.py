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
"""

from __future__ import annotations

from repro.core.powers import GeometricQuantizer, Quantizer
from repro.core.single_session import SingleSessionOnline


class ModifiedSingleSessionOnline(SingleSessionOnline):
    """Theorem 7 variant: coarse ladder while young, fine ladder after.

    Args:
        max_bandwidth: ``B_A`` (power of two).
        offline_delay: ``D_O``.
        offline_utilization: ``U_O``; also sets the coarse ladder base
            ``max(2, 1/U_O)`` unless ``early_base`` overrides it.
        window: ``W >= D_O``.
        early_base: optional explicit base for the young-stage ladder.
        quantizer: the mature-stage quantizer (default: powers of two).
    """

    def __init__(
        self,
        max_bandwidth: float,
        offline_delay: int,
        offline_utilization: float,
        window: int,
        early_base: float | None = None,
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
        base = early_base if early_base is not None else max(
            2.0, 1.0 / offline_utilization
        )
        self.early_quantizer = GeometricQuantizer(base)

    def _stage_target(self, low: float) -> float:
        if self._envelope.slots_seen <= self.window:
            # Young stage: high(t) = B_A constrains nothing yet; climb the
            # coarse ladder so a burst of any size costs O(log_base B_A)
            # changes instead of O(log2 B_A).
            return min(self.early_quantizer(low), self.max_bandwidth)
        # Mature stage: the band high/low <= 2/U_O caps further climbs.
        return self.quantizer(low)
