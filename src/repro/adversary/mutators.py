"""Certification-preserving mutation operators for the hill-climb.

Two mutation spaces:

* **parameter space** — perturb the generator genotype
  (``candidate.params``) and re-run the family generator with a fresh
  sub-seed.  The generator re-derives the witness, so offspring stay
  certified by construction.
* **sequence space** — edit the arrival array directly (duplicate or
  delete a witness-constant segment, inject a burst, swap windows,
  permute sessions) and *re-validate* against the edited witness;
  infeasible edits are retried with different draws and ultimately fall
  back to a reseeded regeneration, so a mutation never silently
  de-certifies a candidate.

All randomness comes from the caller's ``np.random.Generator``, keeping
the search trajectory a pure function of its seed.
"""

from __future__ import annotations

import numpy as np

from repro.adversary.generators import (
    AttackCandidate,
    doubling_attack,
    leaky_bucket_attack,
    leaky_bucket_multi_attack,
    phase_resonant_attack,
    sawtooth_attack,
    threshold_oscillator_attack,
)
from repro.analysis.feasibility import profile_serves, profiles_serve
from repro.errors import ConfigError, ReproError
from repro.params import OfflineConstraints

_SPLICE_TRIES = 5

# Per-family perturbation ranges: {param: (lo, hi)}; ints get +/- steps,
# floats get a multiplicative nudge, both clipped into range.
_FLOAT_RANGES = {
    "leaky-bucket": {"rate_fraction": (0.05, 1.0), "bucket_fraction": (0.1, 1.5)},
    "oscillator": {"burst_scale": (0.1, 1.0), "trickle_fill": (1.05, 2.0)},
    "sawtooth": {"quiet_factor": (1.01, 1.6)},
    "phase-resonant": {
        "hot_fraction": (0.4, 1.0),
        "trickle_fraction": (0.001, 0.1),
    },
    "leaky-bucket-multi": {
        "rate_fraction": (0.1, 1.0),
        "bucket_fraction": (0.2, 1.5),
    },
    "doubling": {},
}
_INT_RANGES = {
    "leaky-bucket": {"period": (1, 64), "jitter": (0, 8)},
    "oscillator": {"gap": (1, 32), "rungs": (1, 16), "cycles": (1, 64)},
    "sawtooth": {"cycles": (1, 64)},
    "doubling": {"repeats": (1, 8)},
    "phase-resonant": {
        "stages": (1, 12),
        "episodes_per_stage": (2, 12),
        "episode_phases": (1, 12),
    },
    "leaky-bucket-multi": {},
}


def _perturb(params: dict, family: str, rng: np.random.Generator) -> dict:
    """Nudge one or two tunable parameters inside their valid ranges."""
    floats = _FLOAT_RANGES.get(family, {})
    ints = _INT_RANGES.get(family, {})
    tunable = [k for k in list(floats) + list(ints) if k in params]
    out = dict(params)
    if not tunable:
        return out
    count = 1 + int(rng.integers(0, min(2, len(tunable))))
    for name in rng.choice(tunable, size=count, replace=False):
        if name in floats:
            lo, hi = floats[name]
            value = float(out[name]) * float(rng.uniform(0.75, 1.35))
            out[name] = float(np.clip(value, lo, hi))
        else:
            lo, hi = ints[name]
            step = int(rng.integers(1, 3))
            if rng.random() < 0.5:
                step = -step
            out[name] = int(np.clip(int(out[name]) + step, lo, hi))
    return out


def _regen_single(
    family: str, params: dict, offline: OfflineConstraints, seed: int
) -> AttackCandidate:
    if family == "leaky-bucket":
        return leaky_bucket_attack(
            offline,
            int(params["horizon"]),
            rate_fraction=params["rate_fraction"],
            bucket_fraction=params["bucket_fraction"],
            period=params["period"],
            jitter=params["jitter"],
            seed=seed,
        )
    if family == "oscillator":
        return threshold_oscillator_attack(
            offline,
            int(params["cycles"]),
            rungs=params["rungs"],
            gap=params["gap"],
            burst_scale=params["burst_scale"],
            low_divisor=params.get("low_divisor"),
            trickle_fill=params["trickle_fill"],
            seed=seed,
        )
    if family == "sawtooth":
        return sawtooth_attack(offline, int(params["cycles"]), params["quiet_factor"])
    if family == "doubling":
        return doubling_attack(
            offline, repeats=int(params["repeats"]), gap=params.get("gap")
        )
    raise ConfigError(f"unknown single-session family {family!r}")


def _regen_multi(
    family: str,
    params: dict,
    offline_bandwidth: float,
    offline_delay: int,
    seed: int,
) -> AttackCandidate:
    if family == "phase-resonant":
        return phase_resonant_attack(
            int(params["k"]),
            offline_bandwidth,
            offline_delay,
            int(params["stages"]),
            hot_fraction=params["hot_fraction"],
            episodes_per_stage=params["episodes_per_stage"],
            episode_phases=params["episode_phases"],
            trickle_fraction=params["trickle_fraction"],
            seed=seed,
        )
    if family == "leaky-bucket-multi":
        return leaky_bucket_multi_attack(
            int(params["k"]),
            offline_bandwidth,
            offline_delay,
            int(params["horizon"]),
            rate_fraction=params["rate_fraction"],
            bucket_fraction=params["bucket_fraction"],
            seed=seed,
        )
    raise ConfigError(f"unknown multi-session family {family!r}")


def _constant_run(profile: np.ndarray, start: int) -> tuple[int, int]:
    """The maximal [s, e) witness-constant run containing ``start``."""
    s = e = start
    while s > 0 and profile[s - 1] == profile[start]:
        s -= 1
    while e < len(profile) and profile[e] == profile[start]:
        e += 1
    return s, e


def _splice_arrays(
    arrivals: np.ndarray,
    profile: np.ndarray | None,
    rng: np.random.Generator,
    burst: float,
) -> tuple[np.ndarray, np.ndarray | None, str]:
    """One sequence-space edit applied to (arrivals, witness) together.

    Segment edits duplicate or delete a witness-constant run so the
    witness stays piecewise-constant with an unchanged switch count;
    burst/swap edits leave the shape alone.  2-D arrays are edited along
    time; the candidate's feasibility is re-checked by the caller.
    """
    horizon = arrivals.shape[0]
    op = ["dup", "del", "jolt", "swap"][int(rng.integers(0, 4))]
    if op in ("dup", "del"):
        if profile is None:
            a = int(rng.integers(0, horizon))
            b = int(rng.integers(0, horizon))
            s, e = min(a, b), min(horizon, max(a, b) + 1)
        else:
            witness_1d = profile if profile.ndim == 1 else profile[:, 0]
            s, e = _constant_run(witness_1d, int(rng.integers(0, horizon)))
        if e <= s or (op == "del" and e - s >= horizon):
            op = "jolt"
        elif op == "dup":
            arrivals = np.concatenate([arrivals[:e], arrivals[s:e], arrivals[e:]])
            if profile is not None:
                profile = np.concatenate([profile[:e], profile[s:e], profile[e:]])
        else:
            arrivals = np.concatenate([arrivals[:s], arrivals[e:]])
            if profile is not None:
                profile = np.concatenate([profile[:s], profile[e:]])
    if op == "jolt":
        arrivals = arrivals.copy()
        t = int(rng.integers(0, arrivals.shape[0]))
        size = float(rng.uniform(0.1, 0.5)) * burst
        if arrivals.ndim == 1:
            arrivals[t] += size
        else:
            arrivals[t, int(rng.integers(0, arrivals.shape[1]))] += size
    elif op == "swap":
        arrivals = arrivals.copy()
        width = max(1, int(rng.integers(1, max(2, arrivals.shape[0] // 8))))
        if arrivals.shape[0] >= 2 * width:
            a = int(rng.integers(0, arrivals.shape[0] - 2 * width + 1))
            b = int(rng.integers(a + width, arrivals.shape[0] - width + 1))
            tmp = arrivals[a : a + width].copy()
            arrivals[a : a + width] = arrivals[b : b + width]
            arrivals[b : b + width] = tmp
    return arrivals, profile, op


def mutate_single(
    candidate: AttackCandidate,
    offline: OfflineConstraints,
    rng: np.random.Generator,
) -> AttackCandidate:
    """One certified mutation of a single-session candidate.

    70% parameter-space regeneration, 30% sequence splice; each splice is
    re-validated against the edited witness and retried (then reseeded
    through the family generator) rather than ever returning an
    uncertified edit of a certified parent.
    """
    if rng.random() < 0.7 and candidate.family in _FLOAT_RANGES:
        params = _perturb(candidate.params, candidate.family, rng)
        try:
            return _regen_single(
                candidate.family, params, offline, int(rng.integers(2**31))
            )
        except ReproError:
            pass  # parameter combination infeasible: try a splice instead
    burst = offline.bandwidth * offline.delay
    for _ in range(_SPLICE_TRIES):
        arrivals, profile, op = _splice_arrays(
            candidate.arrivals, candidate.profile, rng, burst
        )
        if profile is None or profile_serves(arrivals, profile, offline):
            return AttackCandidate(
                arrivals=arrivals,
                profile=profile,
                family=candidate.family,
                params={**candidate.params, "spliced": op},
            )
    try:
        return _regen_single(
            candidate.family, candidate.params, offline, int(rng.integers(2**31))
        )
    except ReproError:
        return candidate


def mutate_multi(
    candidate: AttackCandidate,
    offline_bandwidth: float,
    offline_delay: int,
    rng: np.random.Generator,
) -> AttackCandidate:
    """One certified mutation of a multi-session candidate.

    Adds a feasibility-free operator to the single-session set: permuting
    session columns (arrivals and witness together), which preserves the
    symmetric §3 constraints exactly.
    """
    if candidate.arrivals.ndim != 2:
        raise ConfigError(
            f"mutate_multi needs (T, k) arrivals, got {candidate.arrivals.shape}"
        )
    roll = rng.random()
    if roll < 0.6 and candidate.family in _FLOAT_RANGES:
        params = _perturb(candidate.params, candidate.family, rng)
        try:
            return _regen_multi(
                candidate.family,
                params,
                offline_bandwidth,
                offline_delay,
                int(rng.integers(2**31)),
            )
        except ReproError:
            pass
    if roll < 0.75:
        perm = rng.permutation(candidate.arrivals.shape[1])
        return AttackCandidate(
            arrivals=candidate.arrivals[:, perm],
            profile=(
                candidate.profile[:, perm] if candidate.profile is not None else None
            ),
            family=candidate.family,
            params={**candidate.params, "spliced": "permute"},
        )
    burst = offline_bandwidth * offline_delay
    for _ in range(_SPLICE_TRIES):
        arrivals, profile, op = _splice_arrays(
            candidate.arrivals, candidate.profile, rng, burst
        )
        if profile is None or profiles_serve(
            arrivals, profile, offline_bandwidth, offline_delay
        ):
            return AttackCandidate(
                arrivals=arrivals,
                profile=profile,
                family=candidate.family,
                params={**candidate.params, "spliced": op},
            )
    try:
        return _regen_multi(
            candidate.family,
            candidate.params,
            offline_bandwidth,
            offline_delay,
            int(rng.integers(2**31)),
        )
    except ReproError:
        return candidate
