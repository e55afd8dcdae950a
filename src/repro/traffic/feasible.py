"""Certificate-backed feasible single-session streams.

The paper's competitive ratios compare against an *offline* algorithm whose
change count is unknown for arbitrary inputs.  This generator sidesteps
that: it first draws an explicit piecewise-constant bandwidth profile
``B*(t) <= B_O`` — a concrete offline schedule whose change count we know —
and then synthesizes an arrival stream that this profile provably serves
with delay ``<= D_O`` and local utilization ``>= U_O``:

1. every slot the offline "serves" ``s(t) = u(t) · B*(t)`` bits with a fill
   factor ``u(t)`` comfortably above ``U_O``;
2. those bits are released *earlier* as arrivals — either per-slot shifts
   of up to ``shift`` slots, or burst blocks whose bits all arrive at the
   block head — so every bit's offline delay is at most ``D_O``.

The stream therefore satisfies footnote 1's feasibility assumption by
construction, and ``profile`` is a feasible offline schedule: OPT's change
count is at most the profile's.  Generated streams are re-verified with
:func:`repro.analysis.feasibility.profile_serves`, whose checks are all
vector passes: the ``B_O`` cap, the ``W``-window utilizations and a FIFO
delay verdict read from cumulative curves, which replays the queue only
when its margin is within rounding of zero.  On a failure the generator
retries with less time-shifting
(a zero shift is always feasible) and raises
:class:`~repro.errors.FeasibilityError` only if even that fails (which
would indicate a bug).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError, FeasibilityError
from repro.params import OfflineConstraints
from repro.traffic.base import make_rng


def profile_switch_count(profile: np.ndarray) -> int:
    """Interior level switches of a piecewise-constant profile."""
    array = np.asarray(profile, dtype=float)
    if len(array) < 2:
        return 0
    return int(np.count_nonzero(np.abs(np.diff(array)) > 1e-9))


@dataclass(frozen=True)
class FeasibleStream:
    """A stream plus the offline schedule that certifies its feasibility."""

    arrivals: np.ndarray
    profile: np.ndarray
    offline: OfflineConstraints

    @property
    def profile_changes(self) -> int:
        """Interior switches of the certificate profile (OPT upper bound,
        not counting the initial allocation)."""
        return profile_switch_count(self.profile)

    @property
    def horizon(self) -> int:
        return len(self.arrivals)


def make_profile(
    horizon: int,
    segments: int,
    max_bandwidth: float,
    rng: np.random.Generator,
    min_segment: int = 1,
) -> np.ndarray:
    """Draw a piecewise-constant bandwidth profile with distinct levels.

    Levels are log-uniform between ``max_bandwidth / 64`` and
    ``max_bandwidth``.

    Args:
        horizon: total slots.
        segments: number of constant pieces (>= 1).
        max_bandwidth: level ceiling ``B_O``.
        rng: randomness source.
        min_segment: minimum piece length in slots.
    """
    if segments < 1:
        raise ConfigError(f"segments must be >= 1, got {segments!r}")
    if horizon < segments * min_segment:
        raise ConfigError(
            f"horizon {horizon} too short for {segments} segments of "
            f">= {min_segment} slots"
        )
    floor = max(max_bandwidth / 64.0, 1e-6)
    if floor > max_bandwidth:
        raise ConfigError(f"max_bandwidth must be >= 1e-6, got {max_bandwidth!r}")

    # Segment lengths: min_segment each plus a random split of the slack.
    slack = horizon - segments * min_segment
    cuts = np.sort(rng.integers(0, slack + 1, size=segments - 1)) if segments > 1 else []
    extras = np.diff(np.concatenate([[0], cuts, [slack]])) if segments > 1 else [slack]
    lengths = [min_segment + int(extra) for extra in extras]

    profile = np.empty(horizon, dtype=float)
    position = 0
    previous = None
    for length in lengths:
        for _ in range(16):
            level = float(
                np.exp(rng.uniform(np.log(floor), np.log(max_bandwidth)))
            )
            if previous is None or abs(level - previous) > 1e-9:
                break
        profile[position : position + length] = level
        previous = level
        position += length
    return profile


def _release_early(
    served: np.ndarray,
    max_shift: int,
    mode: str,
    rng: np.random.Generator,
) -> np.ndarray:
    """Turn a served-bits schedule into arrivals released <= max_shift early.

    ``"smooth"`` releases slot ``t``'s bits at ``t - shift(t)`` with
    ``shift(t)`` uniform in ``[0, max_shift]``; ``"blocks"`` cuts the
    horizon into blocks of uniform length in ``[1, max_shift]`` and
    releases each block's bits at its head.  ``max_shift == 0`` returns
    ``served`` unchanged and draws nothing.

    Both modes produce the floats, and leave ``rng`` in the state, of the
    per-slot and per-block loops they replaced: ``np.bincount`` adds each
    slot's bits into its release slot in slot order, starting at 0.0, as
    ``arrivals[t - shift] += served[t]`` did (the loop skipped zero bits,
    which add nothing; served bits are never negative); one array draw of
    block lengths yields what per-block scalar draws did; and each block
    sum is a row sum of a contiguous ``(blocks, L)`` gather, which numpy
    reduces in the same pairwise order as ``served[t:t + L].sum()``.
    """
    if mode not in ("smooth", "blocks"):
        raise ConfigError(f"mode must be 'smooth' or 'blocks', got {mode!r}")
    horizon = len(served)
    if max_shift == 0:
        return served.copy()
    if mode == "smooth":
        shifts = rng.integers(0, max_shift + 1, size=horizon)
        release = np.maximum(np.arange(horizon) - shifts, 0)
        arrivals = np.bincount(release, weights=served, minlength=horizon)
        return arrivals.astype(float, copy=False)  # int64 when horizon is 0
    arrivals = np.zeros(horizon, dtype=float)
    if horizon == 0:
        return arrivals
    # Every block holds at least one slot, so ``horizon`` draws cover the
    # horizon; count the blocks that do, then draw exactly that many.
    state = rng.bit_generator.state
    ends = np.cumsum(rng.integers(1, max_shift + 1, size=horizon))
    blocks = int(np.searchsorted(ends, horizon)) + 1
    rng.bit_generator.state = state
    ends = np.minimum(np.cumsum(rng.integers(1, max_shift + 1, size=blocks)), horizon)
    heads = np.concatenate(([0], ends[:-1]))
    lengths = ends - heads
    for length in np.unique(lengths).tolist():
        starts = heads[lengths == length]
        arrivals[starts] += served[starts[:, None] + np.arange(length)].sum(axis=1)
    return arrivals


def generate_feasible_stream(
    offline: OfflineConstraints,
    horizon: int,
    segments: int = 8,
    seed: int | np.random.Generator | None = None,
    burstiness: str = "smooth",
) -> FeasibleStream:
    """Generate a ``(B_O, D_O, U_O)``-feasible stream with a certificate.

    Each profile piece lasts at least ``max(W, 4 * D_O)`` slots, so
    utilization windows mostly see one level, and each slot serves a fill
    factor uniform in ``[min(0.95, max(2 U_O, U_O + 0.25)), 1]`` of its
    level, well above ``U_O``, so window utilization survives the time
    shifting.

    Args:
        offline: the stringent constraints the certificate must satisfy.
        horizon: stream length in slots.
        segments: profile pieces (certificate changes = ``segments - 1``
            at most).
        seed: RNG seed or Generator.
        burstiness: ``"smooth"`` (per-slot early release) or ``"blocks"``
            (burst trains with all bits at the block head).
    """
    if offline.utilization is None or offline.window is None:
        raise ConfigError("generate_feasible_stream needs a utilization constraint")
    from repro.analysis.feasibility import profile_serves

    rng = make_rng(seed)
    utilization = offline.utilization
    low_fill = min(0.95, max(2.0 * utilization, utilization + 0.25))
    profile = make_profile(
        horizon,
        segments,
        offline.bandwidth,
        rng,
        min_segment=max(offline.window, 4 * offline.delay),
    )
    fills = rng.uniform(low_fill, 1.0, size=horizon)
    served = fills * profile

    for shift in _shrinking_shifts(offline.delay):
        arrivals = _release_early(served, shift, burstiness, rng)
        if profile_serves(arrivals, profile, offline):
            return FeasibleStream(arrivals=arrivals, profile=profile, offline=offline)
    raise FeasibilityError(
        "could not certify a feasible stream even with zero shift — "
        "this indicates an internal inconsistency"
    )


def _shrinking_shifts(delay: int) -> list[int]:
    """Retry ladder: full-delay shifting down to none."""
    shifts = [delay, delay // 2, delay // 4, 1, 0]
    unique: list[int] = []
    for shift in shifts:
        if shift >= 0 and shift not in unique:
            unique.append(shift)
    return unique
