"""Exact offline change-count optimum by dynamic programming.

Enumerating piecewise-constant schedules (the test suite's brute-force
reference) caps out at a handful of changes on toy horizons.  This
module computes the same grid optimum by DP in
``O(T · levels² · max_changes)`` — exact on horizons of hundreds of
slots — so Theorem 6/7 competitive ratios can be checked against a true
optimum rather than a heuristic.

**Lower-bound soundness.**  The DP drops the utilization constraint and
restricts schedules to a level grid that always contains ``B_O``:

* dropping a constraint only *lowers* the minimum, and
* any continuum delay-feasible schedule rounds **up** to the grid
  (each level to the next grid value; extra capacity preserves delay
  feasibility) without adding switches,

so ``oracle <= OPT_grid <= OPT_constrained`` — the result is a valid
lower bound on the offline change count every competitive ratio divides
by.  On instances with no utilization constraint and grid-valued optima
it is exact, which the test suite checks against the enumerator.

The DP state is ``(slot, level, changes used) -> minimal end-of-slot
queue``.  Queue dynamics ``q' = max(0, q + a - c)`` are monotone in
``q`` and the FIFO delay bound is a per-slot ceiling on ``q`` (a bit
arriving at ``t`` must leave by ``t + D_O``, so the end-of-slot queue
may hold at most the last ``D_O`` slots' arrivals), hence the minimal
queue dominates and the DP is exact over the grid.  Termination mirrors
the drain rule of :mod:`repro.analysis.feasibility`: ``D_O``
zero-arrival drain slots are appended at the frozen final level, whose
delay ceilings force a full drain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.params import OfflineConstraints

_EPS = 1e-9


def default_levels(bandwidth: float, include_zero: bool = False) -> list[float]:
    """Power-of-two bandwidth grid down from ``B_O``.

    Halves from ``bandwidth`` while staying ``>= min(1, bandwidth)``, so
    the grid is never empty even for sub-unit bandwidths; ``include_zero``
    appends an explicit idle level (the oracle wants it, the enumerator's
    historical grid did not have it).
    """
    if bandwidth <= 0:
        raise ConfigError(f"bandwidth must be > 0, got {bandwidth!r}")
    floor = min(1.0, float(bandwidth))
    levels = []
    level = float(bandwidth)
    while level >= floor * (1 - 1e-12):
        levels.append(level)
        level /= 2.0
    if include_zero:
        levels.append(0.0)
    return levels


#: ``opt >= 1`` — the ratio is an ordinary finite quotient.
RATIO_FINITE = "finite"
#: ``opt == 0`` yet the online algorithm changed — the Remark §1.1
#: signature: against a constant-schedule offline, every online change is
#: uncompensated and the ratio diverges with the horizon.
RATIO_UNBOUNDED = "unbounded"
#: Both counts are zero: the instance says nothing about the ratio.
RATIO_TRIVIAL = "trivial"
#: The oracle found no feasible offline schedule: no comparison exists.
RATIO_NO_STATEMENT = "no-statement"


@dataclass(frozen=True)
class RatioVerdict:
    """A competitive-ratio measurement with its degenerate cases named.

    ``value`` is ``online / OPT`` with the degenerate cases pinned
    (``inf`` when only the online paid, ``0.0`` when nobody changed,
    ``nan`` without a feasible OPT); ``kind`` distinguishes the two
    zero-OPT cases that collapse there — "OPT = 0 and the online paid"
    (:data:`RATIO_UNBOUNDED`, the Remark §1.1 signature the adversary
    search hunts for) versus "nobody changed" (:data:`RATIO_TRIVIAL`).
    """

    value: float
    kind: str
    online_changes: int
    opt_changes: int | None

    @property
    def unbounded(self) -> bool:
        """True iff this is the Remark §1.1 divergence signature."""
        return self.kind == RATIO_UNBOUNDED

    def as_dict(self) -> dict:
        return {
            "value": self.value,
            "kind": self.kind,
            "online_changes": self.online_changes,
            "opt_changes": self.opt_changes,
        }


def classify_ratio(online_changes: int, opt_changes: int | None) -> RatioVerdict:
    """Classify ``online / OPT`` including every degenerate corner.

    * ``opt is None`` — the oracle was infeasible: ``nan`` /
      :data:`RATIO_NO_STATEMENT`.
    * ``opt == 0, online == 0`` — ``0.0`` / :data:`RATIO_TRIVIAL`.
    * ``opt == 0, online > 0`` — ``inf`` / :data:`RATIO_UNBOUNDED`.
    * otherwise — the finite quotient.
    """
    if online_changes < 0:
        raise ConfigError(f"online_changes must be >= 0, got {online_changes!r}")
    if opt_changes is None:
        return RatioVerdict(math.nan, RATIO_NO_STATEMENT, online_changes, None)
    if opt_changes == 0:
        if online_changes == 0:
            return RatioVerdict(0.0, RATIO_TRIVIAL, 0, 0)
        return RatioVerdict(math.inf, RATIO_UNBOUNDED, online_changes, 0)
    return RatioVerdict(
        online_changes / opt_changes, RATIO_FINITE, online_changes, opt_changes
    )


#: Verdict-kind ordering for rankings: certified finite ratios always
#: sort ahead of every degenerate kind.  Among the degenerates, a
#: zero-change trivial cell (0/0 — certifies nothing, but the policy at
#: least paid nothing) precedes an unbounded one (online paid against
#: OPT = 0), and infeasible-oracle cells sort last.
_KIND_RANK = {
    RATIO_FINITE: 0,
    RATIO_TRIVIAL: 1,
    RATIO_UNBOUNDED: 2,
    RATIO_NO_STATEMENT: 3,
}


def ratio_rank_key(verdict: RatioVerdict) -> tuple[int, float, int]:
    """Total-order sort key for ranking :class:`RatioVerdict` s (best first).

    A naive ``sort by value`` ranks a :data:`RATIO_TRIVIAL` cell (value
    ``0.0``) above every genuinely certified finite ratio — a 0/0 cell
    says nothing about competitiveness and must never outrank a
    :data:`RATIO_FINITE` one.  The key therefore orders by verdict kind
    first (finite < trivial < unbounded < no-statement), then within a
    kind by the certified value and the online change count:

    * finite — ``(0, value, online_changes)``: smaller certified ratio
      wins, fewer online changes break ties;
    * trivial — ``(1, 0.0, 0)``: all 0/0 cells tie;
    * unbounded — ``(2, online_changes, 0)``: fewer uncompensated
      changes rank better;
    * no-statement — ``(3, 0.0, 0)``: last, nothing to compare.
    """
    rank = _KIND_RANK.get(verdict.kind)
    if rank is None:
        raise ConfigError(f"unknown ratio kind {verdict.kind!r}")
    if verdict.kind == RATIO_FINITE:
        return (0, verdict.value, verdict.online_changes)
    if verdict.kind == RATIO_UNBOUNDED:
        return (rank, float(verdict.online_changes), 0)
    return (rank, 0.0, 0)


@dataclass(frozen=True)
class OracleResult:
    """Outcome of the offline change-count DP.

    Attributes:
        changes: fewest interior switches of any delay-feasible grid
            schedule, or ``None`` when none exists within ``max_changes``.
        schedule: a witness schedule achieving ``changes`` (per-slot
            bandwidth over the arrival horizon), or ``None``.
        levels: the bandwidth grid searched.
        horizon: the arrival horizon (excluding drain padding).
        feasible: whether any schedule was found.
    """

    changes: int | None
    schedule: np.ndarray | None
    levels: tuple[float, ...]
    horizon: int
    feasible: bool

    def ratio(self, online_changes: int) -> RatioVerdict:
        """Classify an online change count against this optimum."""
        return classify_ratio(online_changes, self.changes)


def min_changes_oracle(
    arrivals: np.ndarray,
    offline: OfflineConstraints,
    levels: list[float] | None = None,
    max_changes: int | None = None,
) -> OracleResult:
    """Exact minimum interior switches over the grid, delay-only.

    Args:
        arrivals: per-slot offered bits.
        offline: the offline side; only ``bandwidth`` and ``delay`` are
            used (the utilization constraint is deliberately dropped —
            see the module docstring for why that keeps the result a
            lower bound).
        levels: bandwidth grid; defaults to
            ``default_levels(B_O, include_zero=True)``.
        max_changes: cap on the changes dimension; defaults to
            ``len(levels) + 8`` which is never binding on instances the
            grid can serve at all (revisiting a level costs nothing).
    """
    arrivals = np.asarray(arrivals, dtype=float)
    if arrivals.ndim != 1:
        raise ConfigError(f"arrivals must be 1-D, got shape {arrivals.shape}")
    if np.any(arrivals < 0):
        raise ConfigError("arrivals must be non-negative")
    horizon = len(arrivals)
    if levels is None:
        levels = default_levels(offline.bandwidth, include_zero=True)
    levels = sorted(
        {float(x) for x in levels if 0 <= x <= offline.bandwidth * (1 + 1e-12)},
        reverse=True,
    )
    if not levels:
        raise ConfigError("empty level grid")
    if horizon == 0:
        return OracleResult(0, np.empty(0), tuple(levels), 0, True)
    if max_changes is None:
        max_changes = len(levels) + 8

    dp, choice = _forward(arrivals, offline.delay, levels, max_changes)
    total = len(choice)

    finite = np.isfinite(dp)
    if not finite.any():
        return OracleResult(None, None, tuple(levels), horizon, False)
    candidates = np.argwhere(finite)
    best_l, best_c = candidates[np.argmin(candidates[:, 1])]

    # Reconstruct the witness back through the choice table.
    sequence = np.empty(total, dtype=np.int32)
    l, c = int(best_l), int(best_c)
    for t in range(total - 1, 0, -1):
        sequence[t] = l
        prev = int(choice[t, l, c])
        if prev != l:
            c -= 1
        l = prev
    sequence[0] = l
    schedule = np.asarray([levels[i] for i in sequence[:horizon]], dtype=float)

    _validate_witness(arrivals, schedule, offline, int(best_c))
    return OracleResult(int(best_c), schedule, tuple(levels), horizon, True)


def _forward(
    arrivals: np.ndarray, delay: int, levels: list[float], max_changes: int
) -> tuple[np.ndarray, np.ndarray]:
    """The DP's forward pass: final ``dp`` and the full ``choice`` table.

    Runs over ``arrivals`` padded with ``delay`` drain slots.
    ``dp[l, c]`` is the minimal end-of-slot queue at level ``l`` with
    ``c`` changes used (``inf`` when unreachable); ``choice[t, l, c]`` is
    the previous slot's level index (``-1`` at ``t = 0`` and wherever
    the state is unreachable).  One candidate tensor per slot:
    ``cand[l2, l1, c]`` holds ``dp[l1, c]`` on the diagonal (stay) and
    ``dp[l1, c - 1]`` off it (switch, ``inf`` at ``c = 0``); drain slots
    keep the diagonal only.  ``argmin`` over ``l1`` keeps the first
    minimum, so the lowest source index wins a tie.
    """
    horizon = len(arrivals)
    # Padded stream: D_O drain slots, frozen final level (footnote-1
    # termination, mirroring repro.analysis.feasibility's drain rule).
    padded = np.concatenate([arrivals, np.zeros(delay)])
    total = len(padded)
    cum = np.concatenate([[0.0], np.cumsum(padded)])
    # FIFO delay bound as a queue ceiling: the end-of-slot-t queue may
    # hold only bits that arrived in (t - D_O, t].
    ceiling = cum[1:] - cum[np.maximum(0, np.arange(1, total + 1) - delay)]

    n_levels = len(levels)
    level_arr = np.asarray(levels)
    infeasible = math.inf
    # dp[l][c] = minimal end-of-slot queue with level l and c changes used.
    dp = np.full((n_levels, max_changes + 1), infeasible)
    for l, level in enumerate(levels):
        q = max(0.0, padded[0] - level)
        if q <= ceiling[0] + _EPS:
            dp[l, 0] = q
    # choice[t][l][c] = previous level index (or -1 at t=0).
    choice = np.full((total, n_levels, max_changes + 1), -1, dtype=np.int32)

    diagonal = np.arange(n_levels)
    cand = np.empty((n_levels, n_levels, max_changes + 1))
    for t in range(1, total):
        if t >= horizon:  # drain slots: no further switches allowed
            cand.fill(infeasible)
        else:
            cand[:, :, 0] = infeasible
            cand[:, :, 1:] = dp[None, :, :-1]
        cand[diagonal, diagonal] = dp
        source = cand.argmin(axis=1)
        new_dp = np.take_along_axis(cand, source[:, None, :], axis=1)[:, 0, :]
        choice[t] = np.where(new_dp < infeasible, source, -1)
        # Apply dynamics + the delay ceiling for slot t.
        new_dp += padded[t] - level_arr[:, None]
        np.maximum(new_dp, 0.0, out=new_dp)
        new_dp[new_dp > ceiling[t] + _EPS] = infeasible
        # Re-mark unreachable states (arithmetic on inf stays inf unless
        # clipped by the ceiling first, so restore explicitly).
        new_dp[~np.isfinite(new_dp)] = infeasible
        dp = new_dp
    return dp, choice


def _validate_witness(
    arrivals: np.ndarray,
    schedule: np.ndarray,
    offline: OfflineConstraints,
    claimed_changes: int,
) -> None:
    """Replay the witness independently of the DP tables; a failure here
    is a bug in the oracle itself, not in the instance."""
    switches = int(np.count_nonzero(np.abs(np.diff(schedule)) > 1e-12))
    if switches != claimed_changes:
        raise RuntimeError(
            f"oracle witness has {switches} switches, claimed {claimed_changes}"
        )
    padded_a = np.concatenate([arrivals, np.zeros(offline.delay)])
    padded_s = np.concatenate(
        [schedule, np.full(offline.delay, schedule[-1] if len(schedule) else 0.0)]
    )
    cum = np.concatenate([[0.0], np.cumsum(padded_a)]).tolist()
    q = 0.0
    for t, (a, c) in enumerate(zip(padded_a.tolist(), padded_s.tolist())):
        q = max(0.0, q + a - c)
        allowed = cum[t + 1] - cum[max(0, t + 1 - offline.delay)]
        if q > allowed + 1e-6:
            raise RuntimeError(
                f"oracle witness breaks the delay bound at t={t}: "
                f"queue {q:.6g} > {allowed:.6g}"
            )
    if q > 1e-6:
        raise RuntimeError(f"oracle witness fails to drain ({q:.6g} bits left)")
