"""Seeded, deterministic adversary generators with witness certificates.

Each generator returns an :class:`AttackCandidate`: an arrival stream
*plus* a witness offline schedule that provably serves it within the
stringent constraints.  The witness is what turns a measured change count
into a certified competitive-ratio lower bound — ``online / witness
changes`` understates the true ratio, never overstates it (the same
convention as :mod:`repro.analysis.competitive`).

Families:

* :func:`leaky_bucket_attack` — a (ρ, b)-leaky-bucket injection process
  (the adversarial-queuing model): cumulative arrivals over any interval
  of ``n`` slots are at most ``ρ·n + b``.  Bursts of the full bucket
  arrive on a jittered period; the witness is the best *constant* level,
  so every online change against it is uncompensated.
* :func:`threshold_oscillator_attack` — the Figure 3 killer: ladder
  cycles whose bursts straddle successive power-of-two quantizer rungs
  (each burst forces exactly one more online change) followed by a
  starvation window that empties the ``low``/``high`` envelope and
  forces a RESET.  The witness pays 2 changes per cycle; the online
  algorithm pays ``rungs + 2``.
* :func:`phase_resonant_attack` — the multi-session killer: demand
  episodes timed to the phased algorithm's ``D_O``-slot phase grid,
  concentrated on one hot session at a time.  Because regular
  allocations are monotone within a stage, every hot-session rotation
  strands the previous session's inflated quanta; a few rotations push
  the regular channel over ``2·B_O`` and trigger the full 3k-change
  RESET cascade, while the witness pays only 2 changes per rotation.
* :func:`sawtooth_attack` / :func:`doubling_attack` — the Remark §1.1
  constructions from :mod:`repro.traffic.adversary`, wrapped as
  candidates (constant witness; the sawtooth is the no-slack divergence
  driver, the doubling stream walks the whole quantizer ladder).

Determinism: all randomness flows through one ``np.random.Generator``
derived from the ``seed`` argument; equal seeds give bit-identical
candidates.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from repro.analysis.feasibility import profile_serves, profiles_serve
from repro.errors import ConfigError, FeasibilityError
from repro.params import OfflineConstraints
from repro.traffic.adversary import doubling_stream, sawtooth_stream
from repro.traffic.base import make_rng
from repro.traffic.feasible import profile_switch_count
from repro.verify.oracle import default_levels

_EPS = 1e-9


@dataclass(frozen=True)
class AttackCandidate:
    """An adversarial arrival stream plus its feasibility witness.

    Attributes:
        arrivals: per-slot bits, shape ``(T,)`` (single session) or
            ``(T, k)`` (multi-session).
        profile: the witness offline schedule, same shape as
            ``arrivals`` — a concrete feasible offline algorithm whose
            change count upper-bounds OPT; ``None`` marks an uncertified
            candidate (scored conservatively).
        family: generator family name (provenance + corpus labels).
        params: the JSON-able generator parameters that produced this
            candidate (mutators perturb these to stay certified).
    """

    arrivals: np.ndarray
    profile: np.ndarray | None
    family: str
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        arrivals = np.asarray(self.arrivals, dtype=float)
        object.__setattr__(self, "arrivals", arrivals)
        if self.profile is not None:
            profile = np.asarray(self.profile, dtype=float)
            if profile.shape != arrivals.shape:
                raise ConfigError(
                    f"witness shape {profile.shape} != arrivals "
                    f"shape {arrivals.shape}"
                )
            object.__setattr__(self, "profile", profile)

    @property
    def horizon(self) -> int:
        return self.arrivals.shape[0]

    @property
    def k(self) -> int:
        """Session count (1 for a single-session candidate)."""
        return 1 if self.arrivals.ndim == 1 else self.arrivals.shape[1]

    @property
    def profile_changes(self) -> int | None:
        """Witness interior switches (OPT upper bound), or None."""
        if self.profile is None:
            return None
        if self.profile.ndim == 1:
            return profile_switch_count(self.profile)
        return sum(
            profile_switch_count(self.profile[:, i])
            for i in range(self.profile.shape[1])
        )

    @property
    def digest(self) -> str:
        """Content address of the arrivals (stable across processes)."""
        payload = hashlib.sha256()
        payload.update(str(self.arrivals.shape).encode())
        payload.update(np.ascontiguousarray(self.arrivals).tobytes())
        return payload.hexdigest()[:16]

    def describe(self) -> str:
        params = json.dumps(self.params, sort_keys=True, default=str)
        return f"{self.family}[{self.digest}] {params}"


# -- witness helpers -------------------------------------------------------


def constant_witness(
    arrivals: np.ndarray, offline: OfflineConstraints
) -> np.ndarray | None:
    """The best *constant* feasible offline schedule, or None.

    Scans the power-of-two grid from ``B_O`` down and returns the first
    level whose constant schedule serves the stream within delay (and
    utilization, when constrained).  A constant witness has zero interior
    switches: any online change against it feeds the Remark §1.1
    ``unbounded`` signature.
    """
    arrivals = np.asarray(arrivals, dtype=float)
    for level in default_levels(offline.bandwidth):
        profile = np.full(len(arrivals), level)
        if profile_serves(arrivals, profile, offline):
            return profile
    return None


def _certified(
    arrivals: np.ndarray,
    profile: np.ndarray,
    offline: OfflineConstraints,
    family: str,
    params: dict,
) -> AttackCandidate | None:
    """Wrap a construction iff its witness actually certifies it."""
    if profile_serves(arrivals, profile, offline):
        return AttackCandidate(
            arrivals=arrivals, profile=profile, family=family, params=params
        )
    return None


# -- (ρ, b)-leaky-bucket adversaries ---------------------------------------


def leaky_bucket_attack(
    offline: OfflineConstraints,
    horizon: int,
    *,
    rate_fraction: float = 0.25,
    bucket_fraction: float = 0.35,
    period: int | None = None,
    jitter: int = 1,
    seed: int | np.random.Generator | None = 0,
) -> AttackCandidate:
    """A (ρ, b)-leaky-bucket burst train with a constant witness.

    ``ρ = rate_fraction · B_O`` and ``b = bucket_fraction · B_O · D_O``
    (capped so a full dump stays servable at ``B_O`` within ``D_O``).
    Tokens accrue at ρ; the adversary dumps the accrued bucket on a
    jittered period, maximizing short-horizon burstiness while the
    long-run rate stays at ρ.  The witness is the best constant level —
    when one exists the candidate's OPT upper bound is **zero** interior
    switches, so every online change is uncompensated (the stream the
    Remark §1.1 unbounded signature comes from); when even constant
    ``B_O`` fails the candidate is returned uncertified.
    """
    if horizon < 1:
        raise ConfigError(f"horizon must be >= 1, got {horizon!r}")
    if not 0 < rate_fraction <= 1:
        raise ConfigError(f"rate_fraction must be in (0,1], got {rate_fraction!r}")
    if not 0 < bucket_fraction:
        raise ConfigError(f"bucket_fraction must be > 0, got {bucket_fraction!r}")
    rng = make_rng(seed)
    rate = rate_fraction * offline.bandwidth
    bucket = min(
        bucket_fraction * offline.bandwidth * offline.delay,
        offline.bandwidth * offline.delay,
    )
    # Split the rate between a constant trickle and bucket accrual when a
    # utilization constraint exists: the trickle keeps every window above
    # the utilization floor of some constant witness level, which is what
    # lets the candidate certify with ZERO offline switches.  The trickle
    # spends part of ρ, so the (ρ, b) envelope still holds exactly.
    trickle = 0.0
    if offline.utilization is not None and offline.window is not None:
        for level in reversed(default_levels(offline.bandwidth)):
            margin = 1.0 - 1.1 * offline.utilization
            if margin <= 0:
                break
            if level >= bucket / offline.delay / margin:
                wanted = 1.1 * offline.utilization * level
                if wanted < rate * 0.9:
                    trickle = wanted
                break
    accrual = rate - trickle
    if period is None:
        # Dump roughly every bucket-refill time; without a trickle, cap at
        # half a window so utilization windows always contain a burst.
        period = max(2, int(round(bucket / max(accrual, _EPS))))
        if offline.window is not None and trickle == 0.0:
            period = min(period, max(2, offline.window // 2))
    if period < 1:
        raise ConfigError(f"period must be >= 1, got {period!r}")

    arrivals = np.full(horizon, trickle, dtype=float)
    tokens = float(bucket) - trickle
    next_dump = 0
    for t in range(horizon):
        if t >= next_dump and tokens > _EPS:
            arrivals[t] += tokens
            tokens = 0.0
            offset = int(rng.integers(-jitter, jitter + 1)) if jitter else 0
            next_dump = t + max(1, period + offset)
        tokens = min(float(bucket) - trickle, tokens + accrual)
    params = {
        "horizon": horizon,
        "rate_fraction": rate_fraction,
        "bucket_fraction": bucket_fraction,
        "period": period,
        "jitter": jitter,
    }
    profile = constant_witness(arrivals, offline)
    return AttackCandidate(
        arrivals=arrivals, profile=profile, family="leaky-bucket", params=params
    )


# -- threshold-straddling oscillator ---------------------------------------


def threshold_oscillator_attack(
    offline: OfflineConstraints,
    cycles: int,
    *,
    rungs: int | None = None,
    gap: int | None = None,
    burst_scale: float = 0.8,
    low_divisor: float | None = None,
    trickle_fill: float = 1.3,
    seed: int | np.random.Generator | None = 0,
) -> AttackCandidate:
    """Ladder-then-starve cycles that straddle the quantizer rungs.

    Each cycle has two witness segments:

    * **ladder** (witness at ``B_O``): bursts sized ``2^j · (D_O + 1) ·
      (1 + ε)`` land every ``gap`` slots on top of a utilization-safe
      trickle.  Each burst pushes Figure 3's ``low(t)`` just past the
      next power-of-two boundary, so the quantized allocation climbs one
      rung per burst — ``rungs`` changes where a clairvoyant schedule
      would jump once.
    * **starvation** (witness at ``B_O / low_divisor``): a full window of
      trickle pinned to the low witness level crashes ``high(t)`` below
      the still-elevated ``low(t)``, emptying the envelope and forcing a
      RESET (one change up to ``B_A``, one back down).

    The witness pays 2 changes per cycle; Figure 3 pays ``rungs + 2`` —
    a certified ratio near ``(log2 B_A + 2) / 2``.  Construction is
    verified against the witness and degraded deterministically (smaller
    bursts, higher low level) until it certifies; a construction that
    never certifies raises :class:`~repro.errors.FeasibilityError`.
    """
    if cycles < 1:
        raise ConfigError(f"cycles must be >= 1, got {cycles!r}")
    if offline.utilization is None or offline.window is None:
        raise ConfigError("threshold_oscillator_attack needs a utilization constraint")
    if not 0 < burst_scale <= 1:
        raise ConfigError(f"burst_scale must be in (0,1], got {burst_scale!r}")
    rng = make_rng(seed)
    max_rungs = max(1, int(np.floor(np.log2(offline.bandwidth))))
    if rungs is None:
        rungs = max_rungs
    rungs = int(min(rungs, max_rungs))
    if rungs < 1:
        raise ConfigError(f"rungs must be >= 1, got {rungs!r}")
    if gap is None:
        gap = offline.delay
    if gap < 1:
        raise ConfigError(f"gap must be >= 1, got {gap!r}")

    params = {
        "cycles": cycles,
        "rungs": rungs,
        "gap": gap,
        "burst_scale": burst_scale,
        "low_divisor": low_divisor,
        "trickle_fill": trickle_fill,
    }
    # Degrade deterministically until the witness certifies.
    divisors = (
        [low_divisor]
        if low_divisor is not None
        else [8.0, 4.0, 2.0]
    )
    for scale in (burst_scale, burst_scale / 2, burst_scale / 4):
        for divisor in divisors:
            candidate = _oscillator_once(
                offline, cycles, rungs, gap, scale, divisor, trickle_fill, rng
            )
            if candidate is not None:
                chosen = dict(params, burst_scale=scale, low_divisor=divisor)
                return AttackCandidate(
                    arrivals=candidate.arrivals,
                    profile=candidate.profile,
                    family="oscillator",
                    params=chosen,
                )
    raise FeasibilityError(
        "threshold oscillator could not certify a witness even after "
        "degrading — the offline constraints leave no room for a ladder"
    )


def _oscillator_once(
    offline: OfflineConstraints,
    cycles: int,
    rungs: int,
    gap: int,
    burst_scale: float,
    low_divisor: float,
    trickle_fill: float,
    rng: np.random.Generator,
) -> AttackCandidate | None:
    """One oscillator construction attempt (None if it fails to certify)."""
    high_level = offline.bandwidth
    low_level = max(offline.bandwidth / low_divisor, 1e-3)
    # Ladder bursts: straddle successive power-of-two boundaries from the
    # top rung downward in size, delivered smallest first.
    top = burst_scale * offline.bandwidth * offline.delay
    sizes: list[float] = []
    size = top
    for _ in range(rungs):
        sizes.append(size)
        size /= 2.0
    sizes.reverse()
    # Straddle: exceed each rung's boundary by a hair so the quantized
    # allocation must move to the *next* power of two.
    sizes = [s * (1.0 + 1e-3) for s in sizes]

    ladder_len = len(sizes) * gap
    starve_len = offline.window + 2 * offline.delay
    cycle_len = ladder_len + starve_len
    horizon = cycles * cycle_len

    trickle_hi = trickle_fill * offline.utilization * high_level
    trickle_lo = trickle_fill * offline.utilization * low_level
    arrivals = np.empty(horizon, dtype=float)
    profile = np.empty(horizon, dtype=float)
    for c in range(cycles):
        base = c * cycle_len
        ladder = slice(base, base + ladder_len)
        starve = slice(base + ladder_len, base + cycle_len)
        arrivals[ladder] = trickle_hi
        profile[ladder] = high_level
        arrivals[starve] = trickle_lo
        profile[starve] = low_level
        for j, burst in enumerate(sizes):
            # Jitter inside the gap keeps cycles from being carbon
            # copies without moving a burst across segment boundaries.
            offset = int(rng.integers(0, max(1, gap // 2)))
            arrivals[base + j * gap + offset] += burst
    return _certified(
        arrivals,
        profile,
        offline,
        "oscillator",
        {
            "cycles": cycles,
            "rungs": rungs,
            "gap": gap,
            "burst_scale": burst_scale,
            "low_divisor": low_divisor,
            "trickle_fill": trickle_fill,
        },
    )


# -- Remark §1.1 wrappers ---------------------------------------------------


def sawtooth_attack(
    offline: OfflineConstraints, cycles: int, quiet_factor: float = 1.15
) -> AttackCandidate:
    """The Remark §1.1 sawtooth as a certified candidate.

    Feasible for constant ``B_O`` (zero witness changes); a no-slack
    tracker swings every cycle, so its ratio against the witness grows
    without bound — the divergence series the tightness report plots.
    """
    if offline.utilization is None or offline.window is None:
        raise ConfigError("sawtooth_attack needs a utilization constraint")
    arrivals = sawtooth_stream(
        offline.bandwidth,
        offline.delay,
        offline.utilization,
        offline.window,
        cycles,
        quiet_factor=quiet_factor,
    )
    profile = np.full(len(arrivals), offline.bandwidth)
    candidate = _certified(
        arrivals,
        profile,
        offline,
        "sawtooth",
        {"cycles": cycles, "quiet_factor": quiet_factor},
    )
    if candidate is None:
        raise FeasibilityError("sawtooth stream failed its constant-B_O witness")
    return candidate


def doubling_attack(
    offline: OfflineConstraints,
    *,
    repeats: int = 1,
    gap: int | None = None,
) -> AttackCandidate:
    """The Ω(log B_A) doubling ladder as a (possibly uncertified) candidate."""
    arrivals = doubling_stream(
        offline.bandwidth, offline.delay, gap=gap, repeats=repeats
    )
    profile = (
        constant_witness(arrivals, offline)
        if offline.utilization is not None
        else np.full(len(arrivals), offline.bandwidth)
    )
    return AttackCandidate(
        arrivals=arrivals,
        profile=profile,
        family="doubling",
        params={"repeats": repeats, "gap": gap},
    )


# -- phase-resonant multi-session adversaries ------------------------------


def phase_resonant_attack(
    k: int,
    offline_bandwidth: float,
    offline_delay: int,
    stages: int,
    *,
    hot_fraction: float = 0.95,
    episodes_per_stage: int | None = None,
    episode_phases: int | None = None,
    trickle_fraction: float = 0.01,
    seed: int | np.random.Generator | None = 0,
) -> AttackCandidate:
    """Hot-session rotations timed to the ``D_O``-slot phase grid.

    One session at a time receives ``hot_fraction · B_O`` of smooth
    demand.  Within a stage the phased algorithm's regular allocations
    are monotone, so every phase-end where the hot queue outgrows its
    regular share costs a quantum bump plus an overflow round-trip —
    and the quanta granted to *previous* hot sessions stay stranded.
    After a few rotations the regular channel crosses ``2·B_O`` and the
    stage ends in a full RESET cascade: ``Θ(k)`` bump/overflow changes
    plus ``k`` reset changes per stage, close to the proved ``3k``.

    The witness shifts all bandwidth with the hot role: 2 per-session
    profile changes per rotation.  Episodes default to enough phases for
    the bump ladder to exhaust (``≈ hot_fraction·k/2`` bumps) and enough
    rotations per stage to force the reset.
    """
    if k < 2:
        raise ConfigError(f"phase_resonant_attack needs k >= 2, got {k!r}")
    if offline_bandwidth <= 0:
        raise ConfigError(f"offline_bandwidth must be > 0, got {offline_bandwidth!r}")
    if offline_delay < 1:
        raise ConfigError(f"offline_delay must be >= 1, got {offline_delay!r}")
    if stages < 1:
        raise ConfigError(f"stages must be >= 1, got {stages!r}")
    if not 0 < hot_fraction <= 1:
        raise ConfigError(f"hot_fraction must be in (0,1], got {hot_fraction!r}")
    rng = make_rng(seed)
    # Bumps one hot episode can sustain: the hot rate must exceed twice
    # the (monotone) regular share, which starts at B_O/k and grows by a
    # quantum per bump.
    bumps = max(1, int(np.floor(hot_fraction * k / 2.0)) - 1)
    if episode_phases is None:
        episode_phases = bumps + 3  # the bump ladder plus settle slack
    if episodes_per_stage is None:
        # Each episode strands ~`bumps` quanta; k stranded quanta push the
        # regular channel past 2·B_O and trigger the reset cascade.
        episodes_per_stage = max(2, k)

    hot_rate = hot_fraction * offline_bandwidth
    trickle = trickle_fraction * offline_bandwidth / max(1, k - 1)
    episode_len = episode_phases * offline_delay
    horizon = stages * episodes_per_stage * episode_len

    arrivals = np.full((horizon, k), trickle, dtype=float)
    profiles = np.full((horizon, k), trickle, dtype=float)
    hot = int(rng.integers(0, k))
    for episode in range(stages * episodes_per_stage):
        start = episode * episode_len
        stop = start + episode_len
        arrivals[start:stop, hot] = hot_rate
        profiles[start:stop, hot] = hot_rate
        # Witness hand-off slack: keep the old hot session's allocation
        # one extra phase so its residual queue drains within D_O.
        if stop < horizon:
            profiles[stop : min(horizon, stop + offline_delay), hot] = np.maximum(
                profiles[stop : min(horizon, stop + offline_delay), hot], hot_rate
            )
        # Rotate deterministically but seed-dependently: never repeat the
        # same hot session back to back.
        step = 1 + int(rng.integers(0, k - 1))
        hot = (hot + step) % k
    params = {
        "k": k,
        "stages": stages,
        "hot_fraction": hot_fraction,
        "episodes_per_stage": episodes_per_stage,
        "episode_phases": episode_phases,
        "trickle_fraction": trickle_fraction,
    }
    feasible = profiles_serve(arrivals, profiles, offline_bandwidth, offline_delay)
    if not feasible:
        # The hand-off overlap can exceed B_O when the rotation lands on
        # a neighbour; fall back to a non-overlapping witness.
        profiles = np.full((horizon, k), trickle, dtype=float)
        hot_mask = arrivals >= hot_rate - _EPS
        profiles[hot_mask] = hot_rate
        feasible = profiles_serve(
            arrivals, profiles, offline_bandwidth, offline_delay
        )
    return AttackCandidate(
        arrivals=arrivals,
        profile=profiles if feasible else None,
        family="phase-resonant",
        params=params,
    )


def leaky_bucket_multi_attack(
    k: int,
    offline_bandwidth: float,
    offline_delay: int,
    horizon: int,
    *,
    rate_fraction: float = 0.6,
    bucket_fraction: float = 0.8,
    seed: int | np.random.Generator | None = 0,
) -> AttackCandidate:
    """Per-session leaky-bucket dumps with staggered phases.

    Each session runs an independent (ρ/k, b/k) bucket whose dumps are
    offset so some session bursts every phase.  The witness assigns each
    session the constant rate that serves its own dumps — zero interior
    switches when it certifies, so any online change feeds the unbounded
    signature; multi-session algorithms typically ride it out after the
    initial ramp, which is exactly the contrast with
    :func:`phase_resonant_attack` the tightness report shows.
    """
    if k < 2:
        raise ConfigError(f"leaky_bucket_multi_attack needs k >= 2, got {k!r}")
    if horizon < 1:
        raise ConfigError(f"horizon must be >= 1, got {horizon!r}")
    rng = make_rng(seed)
    rate = rate_fraction * offline_bandwidth / k
    bucket = min(
        bucket_fraction * offline_bandwidth * offline_delay / k,
        rate * offline_delay * 2,
    )
    period = max(2, int(round(bucket / rate)))
    arrivals = np.zeros((horizon, k), dtype=float)
    for i in range(k):
        tokens = float(bucket)
        offset = int(rng.integers(0, period))
        next_dump = offset
        for t in range(horizon):
            if t >= next_dump and tokens > _EPS:
                arrivals[t, i] = tokens
                tokens = 0.0
                next_dump = t + period
            tokens = min(float(bucket), tokens + rate)
    # Constant witness: each session gets just enough to drain a full
    # bucket within D_O; fall back to uncertified when that overflows B_O.
    level = max(rate, bucket / offline_delay)
    profiles = np.full((horizon, k), level, dtype=float)
    feasible = profiles_serve(arrivals, profiles, offline_bandwidth, offline_delay)
    return AttackCandidate(
        arrivals=arrivals,
        profile=profiles if feasible else None,
        family="leaky-bucket-multi",
        params={
            "k": k,
            "horizon": horizon,
            "rate_fraction": rate_fraction,
            "bucket_fraction": bucket_fraction,
            "period": period,
        },
    )
