"""Adversary generators: determinism, witnesses, envelope conformance."""

from __future__ import annotations

import numpy as np
import pytest

from repro.adversary import (
    AttackCandidate,
    constant_witness,
    doubling_attack,
    leaky_bucket_attack,
    leaky_bucket_multi_attack,
    phase_resonant_attack,
    sawtooth_attack,
    threshold_oscillator_attack,
)
from repro.analysis.feasibility import check_multi_against_profiles
from repro.errors import ConfigError
from repro.params import OfflineConstraints
from repro.verify.certificates import claim9_series, claim9_violations
from tests.references import check_stream_against_profile

OFFLINE = OfflineConstraints(bandwidth=64.0, delay=4, utilization=0.25, window=8)


def _conforming(arrivals, rate: float, burst: float) -> bool:
    """The ``(rate, burst)`` token-bucket envelope: Claim 9's with
    ``B_O = rate`` and ``D_O = burst / rate``."""
    return claim9_violations(*claim9_series(arrivals, rate, burst / rate)).size == 0


class TestAttackCandidate:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            AttackCandidate(
                arrivals=np.zeros(10), profile=np.zeros(9), family="x"
            )

    def test_digest_is_content_addressed(self):
        a = AttackCandidate(arrivals=np.arange(5.0), profile=None, family="x")
        b = AttackCandidate(arrivals=np.arange(5.0), profile=None, family="y")
        c = AttackCandidate(arrivals=np.arange(6.0), profile=None, family="x")
        assert a.digest == b.digest
        assert a.digest != c.digest

    def test_multi_profile_changes_sums_sessions(self):
        profile = np.zeros((6, 2))
        profile[3:, 0] = 1.0  # one switch in session 0
        candidate = AttackCandidate(
            arrivals=np.zeros((6, 2)), profile=profile, family="x"
        )
        assert candidate.k == 2
        assert candidate.profile_changes == 1


class TestLeakyBucket:
    def test_conformance_checker(self):
        assert _conforming(np.array([5.0, 0.0, 0.0, 2.0]), 1.0, 5.0)
        # Second burst of 5 arrives before the bucket refills.
        assert not _conforming(np.array([5.0, 5.0]), 1.0, 5.0)

    def test_window_admits_rate_times_length_plus_bucket(self):
        # Regressions: a window of len slots admits ρ·len + b bits, not
        # ρ·(len - 1) + b (a token pool checked before its refill).
        assert _conforming(np.array([6.0]), 1.0, 5.0)
        assert _conforming(np.array([0.0, 0.0, 3.0, 3.0]), 1.0, 4.0)
        assert not _conforming(np.array([6.0 + 1e-3]), 1.0, 5.0)
        assert not _conforming(np.array([0.0, 0.0, 3.0, 3.0 + 1e-3]), 1.0, 4.0)

    def test_attack_conforms_to_its_envelope(self):
        candidate = leaky_bucket_attack(OFFLINE, 200, seed=3)
        rate = candidate.params["rate_fraction"] * OFFLINE.bandwidth
        bucket = candidate.params["bucket_fraction"] * (
            OFFLINE.bandwidth * OFFLINE.delay
        )
        assert _conforming(candidate.arrivals, rate, bucket)

    def test_default_attack_certifies_constant_witness(self):
        candidate = leaky_bucket_attack(OFFLINE, 200, seed=3)
        assert candidate.profile is not None
        assert candidate.profile_changes == 0
        report = check_stream_against_profile(
            candidate.arrivals, candidate.profile, OFFLINE
        )
        assert report.feasible

    def test_deterministic_in_seed(self):
        a = leaky_bucket_attack(OFFLINE, 150, seed=11)
        b = leaky_bucket_attack(OFFLINE, 150, seed=11)
        c = leaky_bucket_attack(OFFLINE, 150, seed=12)
        assert a.digest == b.digest
        assert a.digest != c.digest

    def test_rejects_bad_arguments(self):
        with pytest.raises(ConfigError):
            leaky_bucket_attack(OFFLINE, 0)
        with pytest.raises(ConfigError):
            leaky_bucket_attack(OFFLINE, 10, rate_fraction=0.0)


class TestOscillator:
    def test_certifies_with_two_witness_changes_per_cycle(self):
        candidate = threshold_oscillator_attack(OFFLINE, 3, seed=1)
        assert candidate.profile is not None
        # 2 interior switches per cycle, minus the missing lead-in switch.
        assert candidate.profile_changes == 2 * 3 - 1
        report = check_stream_against_profile(
            candidate.arrivals, candidate.profile, OFFLINE
        )
        assert report.feasible

    def test_deterministic_in_seed(self):
        assert (
            threshold_oscillator_attack(OFFLINE, 2, seed=5).digest
            == threshold_oscillator_attack(OFFLINE, 2, seed=5).digest
        )

    def test_needs_utilization_constraint(self):
        with pytest.raises(ConfigError):
            threshold_oscillator_attack(
                OfflineConstraints(bandwidth=64.0, delay=4), 2
            )


class TestWrappedFamilies:
    def test_sawtooth_constant_witness(self):
        candidate = sawtooth_attack(OFFLINE, 4)
        assert candidate.profile_changes == 0
        assert check_stream_against_profile(
            candidate.arrivals, candidate.profile, OFFLINE
        ).feasible

    def test_doubling_attack_builds(self):
        candidate = doubling_attack(OFFLINE)
        assert candidate.family == "doubling"
        assert candidate.horizon > 0

    def test_constant_witness_none_when_infeasible(self):
        # A burst no constant grid level can serve within the delay bound.
        arrivals = np.zeros(20)
        arrivals[0] = 10 * OFFLINE.bandwidth * OFFLINE.delay
        assert constant_witness(arrivals, OFFLINE) is None


class TestMultiSession:
    def test_phase_resonant_certifies(self):
        candidate = phase_resonant_attack(4, 64.0, 4, 2, seed=0)
        assert candidate.arrivals.shape[1] == 4
        assert candidate.profile is not None
        report = check_multi_against_profiles(
            candidate.arrivals, candidate.profile, 64.0, 4
        )
        assert report.feasible

    def test_phase_resonant_deterministic(self):
        assert (
            phase_resonant_attack(3, 32.0, 4, 2, seed=9).digest
            == phase_resonant_attack(3, 32.0, 4, 2, seed=9).digest
        )

    def test_phase_resonant_needs_two_sessions(self):
        with pytest.raises(ConfigError):
            phase_resonant_attack(1, 64.0, 4, 2)

    def test_leaky_bucket_multi_zero_change_witness(self):
        candidate = leaky_bucket_multi_attack(4, 64.0, 4, 200, seed=0)
        assert candidate.profile is not None
        assert candidate.profile_changes == 0
        assert check_multi_against_profiles(
            candidate.arrivals, candidate.profile, 64.0, 4
        ).feasible
