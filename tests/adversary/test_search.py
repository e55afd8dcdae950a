"""Scoring and hill-climb: certified brackets, determinism, resume."""

from __future__ import annotations

import numpy as np
import pytest

from repro.adversary import (
    hill_climb,
    leaky_bucket_attack,
    mutate_multi,
    mutate_single,
    phase_resonant_attack,
    sawtooth_attack,
    score_multi,
    score_single,
    threshold_oscillator_attack,
)
from repro.analysis.feasibility import check_multi_against_profiles
from repro.errors import ConfigError
from repro.params import OfflineConstraints
from repro.runner.resilience import SweepJournal
from tests.references import check_stream_against_profile

OFFLINE = OfflineConstraints(bandwidth=64.0, delay=4, utilization=0.25, window=8)


class TestScoreSingle:
    def test_oscillator_scores_certified_finite_ratio(self):
        candidate = threshold_oscillator_attack(OFFLINE, 3, seed=1)
        score = score_single(candidate, OFFLINE, use_cache=False)
        assert score.certified
        assert score.verdict_kind == "finite"
        assert score.ratio >= 2.0
        assert score.opt_lower <= score.opt_upper
        assert score.ratio == score.online_changes / max(1, score.opt_upper)

    def test_sawtooth_scores_unbounded_signature(self):
        candidate = sawtooth_attack(OFFLINE, 4)
        score = score_single(candidate, OFFLINE, use_cache=False)
        assert score.certified
        assert score.unbounded
        assert score.opt_upper == 0
        assert score.online_changes > 0

    def test_uncertified_candidate_scores_zero(self):
        candidate = threshold_oscillator_attack(OFFLINE, 2, seed=1)
        stripped = type(candidate)(
            arrivals=candidate.arrivals,
            profile=None,
            family=candidate.family,
            params=candidate.params,
        )
        score = score_single(stripped, OFFLINE, use_cache=False)
        assert not score.certified
        assert score.ratio == 0.0

    def test_deterministic(self):
        candidate = threshold_oscillator_attack(OFFLINE, 2, seed=4)
        a = score_single(candidate, OFFLINE, use_cache=False)
        b = score_single(candidate, OFFLINE, use_cache=False)
        assert a.as_dict() == b.as_dict()


class TestScoreMulti:
    def test_phase_resonant_ratio_at_least_k(self):
        k = 4
        candidate = phase_resonant_attack(k, 64.0, 4, 2, seed=0)
        score = score_multi(candidate, 64.0, 4, use_cache=False)
        assert score.certified
        assert score.ratio >= k

    def test_rejects_single_session_shape(self):
        candidate = sawtooth_attack(OFFLINE, 2)
        with pytest.raises(ConfigError):
            score_multi(candidate, 64.0, 4, use_cache=False)

    def test_stage_changes_within_enforced_envelope(self):
        k = 4
        candidate = phase_resonant_attack(k, 64.0, 4, 2, seed=0)
        score = score_multi(candidate, 64.0, 4, use_cache=False)
        assert score.max_stage_changes <= 6 * k


class TestMutators:
    def test_mutate_single_preserves_certification(self, rng):
        parent = threshold_oscillator_attack(OFFLINE, 2, seed=2)
        for _ in range(10):
            child = mutate_single(parent, OFFLINE, rng)
            if child.profile is not None:
                assert check_stream_against_profile(
                    child.arrivals, child.profile, OFFLINE
                ).feasible

    def test_mutate_single_deterministic_per_rng_seed(self):
        parent = leaky_bucket_attack(OFFLINE, 100, seed=0)
        a = mutate_single(parent, OFFLINE, np.random.default_rng([3, 0]))
        b = mutate_single(parent, OFFLINE, np.random.default_rng([3, 0]))
        assert a.digest == b.digest

    def test_mutate_multi_preserves_certification(self, rng):
        parent = phase_resonant_attack(4, 64.0, 4, 2, seed=0)
        for _ in range(10):
            child = mutate_multi(parent, 64.0, 4, rng)
            assert child.arrivals.shape[1] == 4
            if child.profile is not None:
                assert check_multi_against_profiles(
                    child.arrivals, child.profile, 64.0, 4
                ).feasible


class TestHillClimb:
    def _run(self, journal=None, budget=8, seed=3):
        initial = [
            sawtooth_attack(OFFLINE, 2),
            threshold_oscillator_attack(OFFLINE, 2, seed=seed),
        ]
        return hill_climb(
            initial,
            lambda c: score_single(c, OFFLINE, use_cache=False),
            lambda c, rng: mutate_single(c, OFFLINE, rng),
            budget=budget,
            seed=seed,
            journal=journal,
        )

    def test_deterministic_trajectory(self):
        a = self._run()
        b = self._run()
        assert a.best.digest == b.best.digest
        assert a.best_score.as_dict() == b.best_score.as_dict()
        assert [h["digest"] for h in a.history] == [
            h["digest"] for h in b.history
        ]

    def test_budget_counts_evaluations(self):
        result = self._run(budget=6)
        assert result.evaluations == 6
        assert len(result.history) == 6

    def test_journal_resume_replays_scores(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with SweepJournal(path) as journal:
            first = self._run(journal=journal)
        assert first.cached_hits == 0
        with SweepJournal(path) as journal:
            second = self._run(journal=journal)
        assert second.cached_hits == second.evaluations
        assert second.best.digest == first.best.digest
        assert second.best_score.as_dict() == first.best_score.as_dict()

    def test_leaderboard_caps_each_family(self):
        result = self._run(budget=10)
        families = [candidate.family for candidate, _ in result.top]
        for family in set(families):
            assert families.count(family) <= 2

    def test_rejects_empty_initial(self):
        with pytest.raises(ConfigError):
            hill_climb([], lambda c: None, lambda c, r: c, budget=2)
