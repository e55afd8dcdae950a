"""The DP change-count oracle vs the exhaustive enumerator and certificates.

``min_changes_oracle`` claims to be exact over its grid; the enumerator
in :mod:`repro.core.opt_bruteforce` *is* exact by construction on tiny
instances, so equality between them (same grid, no utilization
constraint) is the oracle's ground truth.  The remaining tests pin the
lower-bound relationship against generator certificates and the
degenerate/edge cases.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.params import OfflineConstraints
from repro.traffic.feasible import generate_feasible_stream
from repro.verify.oracle import (
    _EPS,
    _forward,
    RATIO_FINITE,
    RATIO_NO_STATEMENT,
    RATIO_TRIVIAL,
    RATIO_UNBOUNDED,
    classify_ratio,
    default_levels,
    min_changes_oracle,
)
from tests.strategies import FUZZ_EXAMPLES, seeds
from tests.opt_bruteforce import min_changes_bruteforce


def _oracle_tables_loop(arrivals, delay, levels, max_changes):
    """The ``for l2: for l1:`` forward pass ``_forward`` used to run."""
    horizon = len(arrivals)
    padded = np.concatenate([arrivals, np.zeros(delay)])
    total = len(padded)
    cum = np.concatenate([[0.0], np.cumsum(padded)])
    ceiling = cum[1:] - cum[np.maximum(0, np.arange(1, total + 1) - delay)]
    n_levels = len(levels)
    infeasible = math.inf
    dp = np.full((n_levels, max_changes + 1), infeasible)
    for l, level in enumerate(levels):
        q = max(0.0, padded[0] - level)
        if q <= ceiling[0] + _EPS:
            dp[l, 0] = q
    choice = np.full((total, n_levels, max_changes + 1), -1, dtype=np.int32)
    level_arr = np.asarray(levels)
    for t in range(1, total):
        frozen = t >= horizon
        new_dp = np.full_like(dp, infeasible)
        for l2 in range(n_levels):
            for l1 in range(n_levels):
                if frozen and l1 != l2:
                    continue
                cost = 0 if l1 == l2 else 1
                src = dp[l1]
                if cost:
                    src = np.concatenate([[infeasible], src[:-1]])
                better = src < new_dp[l2]
                if np.any(better):
                    new_dp[l2][better] = src[better]
                    choice[t, l2, better] = l1
        new_dp += padded[t] - level_arr[:, None]
        np.maximum(new_dp, 0.0, out=new_dp)
        new_dp[new_dp > ceiling[t] + _EPS] = infeasible
        new_dp[~np.isfinite(new_dp)] = infeasible
        dp = new_dp
    return dp, choice


def _assert_tables_match(arrivals, delay, levels, max_changes):
    dp, choice = _forward(arrivals, delay, levels, max_changes)
    want_dp, want_choice = _oracle_tables_loop(arrivals, delay, levels, max_changes)
    assert np.array_equal(dp, want_dp)
    assert np.array_equal(choice, want_choice)


class TestDefaultLevels:
    def test_powers_of_two_down_to_one(self):
        assert default_levels(8.0) == [8.0, 4.0, 2.0, 1.0]
        assert default_levels(8.0, include_zero=True) == [8.0, 4.0, 2.0, 1.0, 0.0]

    def test_non_power_of_two_bandwidth(self):
        assert default_levels(6.0) == [6.0, 3.0, 1.5]

    def test_sub_unit_bandwidth_grid_not_empty(self):
        # Regression: the enumerator's historical inline grid was empty for
        # B_O < 1 and raised ConfigError before any schedule was tried.
        assert default_levels(0.5) == [0.5]
        offline = OfflineConstraints(bandwidth=0.5, delay=2)
        # A constant 0.5 schedule serves this with zero interior switches —
        # what matters is that it no longer raises "empty level grid".
        assert min_changes_bruteforce(np.array([0.4, 0.4]), offline) == 0

    def test_zero_bandwidth_rejected(self):
        with pytest.raises(ConfigError):
            default_levels(0.0)


class TestOracleExactness:
    """Same grid, no utilization constraint ⇒ oracle == enumerator."""

    @settings(max_examples=30, deadline=None)
    @given(seed=seeds)
    def test_matches_bruteforce(self, seed):
        rng = np.random.default_rng(seed)
        horizon = int(rng.integers(3, 9))
        arrivals = rng.integers(0, 7, horizon).astype(float)
        offline = OfflineConstraints(bandwidth=8.0, delay=int(rng.integers(2, 4)))
        levels = default_levels(offline.bandwidth)  # enumerator's grid (no 0)
        oracle = min_changes_oracle(arrivals, offline, levels=levels)
        brute = min_changes_bruteforce(arrivals, offline, levels=levels)
        if brute is None:
            # Enumerator capped at 3 changes; the oracle may go deeper.
            assert oracle.changes is None or oracle.changes > 3
        else:
            assert oracle.feasible
            assert oracle.changes == brute

    def test_constant_feasible_load_needs_no_interior_switch(self):
        offline = OfflineConstraints(bandwidth=8.0, delay=2)
        oracle = min_changes_oracle(np.full(20, 6.0), offline)
        assert oracle.changes == 0
        assert np.all(oracle.schedule == oracle.schedule[0])

    def test_burst_then_silence_forces_a_switch_down_or_none(self):
        # The idle level is on the default grid, so after a hard burst the
        # optimum may park at 0 — but serving the burst within the delay
        # bound pins the level high while it lasts.
        offline = OfflineConstraints(bandwidth=8.0, delay=2)
        arrivals = np.concatenate([np.full(6, 8.0), np.zeros(20)])
        oracle = min_changes_oracle(arrivals, offline)
        assert oracle.feasible
        assert oracle.changes <= 1
        assert np.all(oracle.schedule[:5] == 8.0)


@st.composite
def _oracle_instances(draw, max_slots: int = 40):
    """``(arrivals, delay, levels, max_changes)`` with many level ties.

    Arrivals are mostly whole multiples of the power-of-two grid (so
    several source levels reach the same queue) with zero-arrival
    stretches, bursts past ``B_O`` (infeasible instances) and arbitrary
    floats.
    """
    bandwidth = draw(st.sampled_from([8.0, 16.0, 64.0]))
    delay = draw(st.integers(1, 11))
    n = draw(st.integers(1, max_slots))
    rng = np.random.default_rng(draw(seeds))
    shape = draw(st.sampled_from(["grid", "onoff", "floats", "burst"]))
    if shape == "grid":
        arrivals = rng.choice([0.0, 1.0, 2.0, 4.0, bandwidth / 2, bandwidth], n)
    elif shape == "onoff":
        arrivals = np.where(rng.random(n) < 0.3, rng.integers(1, 9, n), 0).astype(float)
    elif shape == "floats":
        arrivals = rng.uniform(0.0, bandwidth, n)
    else:
        arrivals = rng.poisson(bandwidth / 4, n).astype(float)
        arrivals[rng.integers(n)] = bandwidth * (delay + 2)
    levels = default_levels(bandwidth, include_zero=draw(st.booleans()))
    max_changes = draw(st.one_of(st.none(), st.integers(0, 3)))
    if max_changes is None:
        max_changes = len(levels) + 8
    return arrivals, delay, levels, max_changes


class TestForwardMatchesLoop:
    """The candidate-tensor pass reproduces the loop's ``dp`` and ``choice``."""

    @settings(max_examples=FUZZ_EXAMPLES, deadline=None)
    @given(_oracle_instances())
    def test_random_instances(self, instance):
        _assert_tables_match(*instance)

    def test_infeasible_instance(self):
        arrivals = np.array([1.0, 100.0, 2.0])
        _assert_tables_match(arrivals, 2, default_levels(4.0, include_zero=True), 12)
        offline = OfflineConstraints(bandwidth=4.0, delay=2)
        assert min_changes_oracle(arrivals, offline).changes is None

    def test_binding_max_changes(self):
        # High, idle, high, idle: schedules that follow the load switch
        # three times, so a cap below 3 cuts reachable states out of dp.
        arrivals = np.array([8.0] * 4 + [0.0] * 8 + [8.0] * 4 + [0.0] * 8)
        levels = default_levels(8.0, include_zero=True)
        free, _ = _forward(arrivals, 1, levels, 12)
        assert np.isfinite(free[:, 3]).any()
        for cap in range(4):
            _assert_tables_match(arrivals, 1, levels, cap)

    def test_ties_and_zero_stretches(self):
        arrivals = np.array([2.0, 2.0, 0.0, 0.0, 0.0, 2.0, 0.0, 0.0])
        levels = default_levels(16.0, include_zero=True)
        _, choice = _forward(arrivals, 3, levels, 4)
        # Slot 1 at level 0 after one switch: levels 16, 8, 4 and 2 all
        # left an empty queue, and the lowest index wins the tie as the
        # loop's strict < did.
        assert levels == [16.0, 8.0, 4.0, 2.0, 1.0, 0.0]
        assert choice[1, 5, 1] == 0
        assert choice[1, 5, 0] == 5
        _assert_tables_match(arrivals, 3, levels, 4)

    @pytest.mark.parametrize("delay", [1, 2, 11])
    def test_one_slot_horizon(self, delay):
        for bits in (0.0, 3.0, 8.0, 50.0):
            _assert_tables_match(np.array([bits]), delay, [8.0, 4.0, 0.0], 2)


class TestWitness:
    @settings(max_examples=20, deadline=None)
    @given(seed=seeds)
    def test_witness_shape_and_grid(self, seed):
        rng = np.random.default_rng(seed)
        arrivals = rng.integers(0, 6, 30).astype(float)
        offline = OfflineConstraints(bandwidth=8.0, delay=3)
        oracle = min_changes_oracle(arrivals, offline)
        if not oracle.feasible:
            return
        assert oracle.schedule.shape == (30,)
        assert set(np.unique(oracle.schedule)) <= set(oracle.levels)
        # Interior switches of the witness equal the claimed optimum
        # (min_changes_oracle already replays the witness internally; this
        # re-checks from the outside).
        switches = int(np.count_nonzero(np.abs(np.diff(oracle.schedule)) > 1e-12))
        assert switches == oracle.changes

    def test_infeasible_burst_reported(self):
        # 100 bits must drain within 2 slots of arrival but the grid tops
        # out at 4 bits/slot: no schedule exists.
        offline = OfflineConstraints(bandwidth=4.0, delay=2)
        oracle = min_changes_oracle(np.array([100.0]), offline)
        assert not oracle.feasible
        assert oracle.changes is None
        assert oracle.schedule is None

    def test_empty_horizon(self):
        offline = OfflineConstraints(bandwidth=4.0, delay=2)
        oracle = min_changes_oracle(np.array([]), offline)
        assert oracle.feasible and oracle.changes == 0


class TestLowerBound:
    """oracle ≤ certificate profile changes — the Theorem 6/7 premise."""

    @settings(max_examples=15, deadline=None)
    @given(seed=seeds)
    def test_oracle_below_profile_changes(self, seed):
        offline = OfflineConstraints(
            bandwidth=16.0, delay=3, utilization=0.25, window=6
        )
        stream = generate_feasible_stream(offline, 96, segments=3, seed=seed)
        oracle = min_changes_oracle(stream.arrivals, offline)
        assert oracle.feasible, "certified streams must be oracle-servable"
        assert oracle.changes <= stream.profile_changes


class TestCompetitiveRatio:
    def test_cases(self):
        assert math.isnan(classify_ratio(5, None).value)
        assert classify_ratio(0, 0).value == 0.0
        assert classify_ratio(3, 0).value == math.inf
        assert classify_ratio(6, 2).value == pytest.approx(3.0)


class TestClassifyRatio:
    """The two zero-OPT cases must stay distinguishable (Remark §1.1)."""

    def test_unbounded_vs_trivial(self):
        unbounded = classify_ratio(3, 0)
        assert unbounded.kind == RATIO_UNBOUNDED
        assert unbounded.unbounded
        assert unbounded.value == math.inf
        trivial = classify_ratio(0, 0)
        assert trivial.kind == RATIO_TRIVIAL
        assert not trivial.unbounded
        assert trivial.value == 0.0

    def test_finite_and_no_statement(self):
        finite = classify_ratio(6, 2)
        assert finite.kind == RATIO_FINITE
        assert finite.value == pytest.approx(3.0)
        none = classify_ratio(6, None)
        assert none.kind == RATIO_NO_STATEMENT
        assert math.isnan(none.value)
        assert none.opt_changes is None

    def test_negative_online_rejected(self):
        with pytest.raises(ConfigError):
            classify_ratio(-1, 0)

    def test_as_dict_round_trips_kind(self):
        verdict = classify_ratio(4, 2)
        payload = verdict.as_dict()
        assert payload["kind"] == RATIO_FINITE
        assert payload["online_changes"] == 4
        assert payload["opt_changes"] == 2

    def test_oracle_result_ratio_method(self):
        offline = OfflineConstraints(bandwidth=8.0, delay=2)
        oracle = min_changes_oracle(np.full(12, 2.0), offline)
        assert oracle.changes == 0
        assert oracle.ratio(0).kind == RATIO_TRIVIAL
        assert oracle.ratio(5).kind == RATIO_UNBOUNDED


class TestDegenerateTraces:
    """Zero-arrival and single-slot instances must classify cleanly."""

    def test_zero_arrival_trace_is_trivial(self):
        offline = OfflineConstraints(bandwidth=8.0, delay=2)
        oracle = min_changes_oracle(np.zeros(16), offline)
        assert oracle.feasible and oracle.changes == 0
        assert oracle.ratio(0).kind == RATIO_TRIVIAL

    def test_zero_arrival_with_online_changes_is_unbounded(self):
        offline = OfflineConstraints(bandwidth=8.0, delay=2)
        oracle = min_changes_oracle(np.zeros(16), offline)
        verdict = oracle.ratio(2)
        assert verdict.kind == RATIO_UNBOUNDED
        assert verdict.value == math.inf

    def test_single_slot_trace(self):
        offline = OfflineConstraints(bandwidth=8.0, delay=2)
        oracle = min_changes_oracle(np.array([4.0]), offline)
        assert oracle.feasible and oracle.changes == 0
        assert len(oracle.schedule) == 1
        assert oracle.ratio(1).kind == RATIO_UNBOUNDED

    def test_single_slot_infeasible_is_no_statement(self):
        offline = OfflineConstraints(bandwidth=2.0, delay=1)
        oracle = min_changes_oracle(np.array([100.0]), offline)
        assert not oracle.feasible
        assert oracle.ratio(3).kind == RATIO_NO_STATEMENT
