"""Early release and the feasibility predicate against their old forms.

``_release_early`` claims the arrivals of the per-slot and per-block loops
it replaced, drawn from the same random numbers and leaving the generator
in the same state.  The old loop is kept here verbatim as the oracle, and
every comparison is bitwise, including the next draw from the generator.
``profile_serves`` claims ``check_stream_against_profile``'s verdict with
the checks reordered.  The generators' outputs are pinned to the digests
the loops produced.  Hypothesis budgets follow ``REPRO_FUZZ_EXAMPLES``.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.analysis.feasibility as feasibility
from repro.analysis.feasibility import profile_serves
from repro.errors import ConfigError
from repro.params import OfflineConstraints
from repro.traffic.feasible import _release_early, generate_feasible_stream
from repro.traffic.multi import generate_multi_feasible
from tests.strategies import FUZZ_EXAMPLES, seeds
from tests.references import check_stream_against_profile

_SETTINGS = settings(max_examples=FUZZ_EXAMPLES, deadline=None)


def _release_oracle(served, max_shift, mode, rng):
    """The per-slot / per-block loop ``_release_early`` replaced, verbatim."""
    horizon = len(served)
    arrivals = np.zeros(horizon, dtype=float)
    if max_shift == 0:
        return served.copy()
    if mode == "smooth":
        shifts = rng.integers(0, max_shift + 1, size=horizon)
        for t in range(horizon):
            if served[t] > 0:
                arrivals[max(0, t - int(shifts[t]))] += served[t]
    elif mode == "blocks":
        t = 0
        while t < horizon:
            block = int(rng.integers(1, max_shift + 1))
            end = min(horizon, t + block)
            arrivals[t] += float(served[t:end].sum())
            t = end
    else:
        raise ConfigError(f"mode must be 'smooth' or 'blocks', got {mode!r}")
    return arrivals


_BIT_GENERATORS = (
    np.random.PCG64,
    np.random.MT19937,
    np.random.Philox,
    np.random.SFC64,
)


def _generator(kind, seed: int, predraw: bool) -> np.random.Generator:
    rng = np.random.Generator(kind(seed))
    if predraw:
        rng.integers(0, 7)  # leaves half of a 64-bit draw buffered
    return rng


def _served(seed: int, horizon: int) -> np.ndarray:
    """Fill-times-level service with zeros, signed zeros and dust mixed in."""
    rng = np.random.default_rng(seed)
    served = rng.uniform(0.2, 1.0, horizon) * np.exp(rng.uniform(-4.0, 4.0, horizon))
    kind = rng.integers(0, 6, horizon)
    served[kind == 0] = 0.0
    served[kind == 1] = -0.0
    served[kind == 2] = rng.uniform(1e-13, 1e-9, int(np.sum(kind == 2)))
    return served


def _same_bits(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype == np.float64
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestReleaseEarly:
    @_SETTINGS
    @given(
        horizon=st.integers(min_value=1, max_value=3000),
        shift=st.integers(min_value=0, max_value=40),
        mode=st.sampled_from(["smooth", "blocks"]),
        kind=st.sampled_from(_BIT_GENERATORS),
        predraw=st.booleans(),
        seed=seeds,
    )
    def test_matches_loop(self, horizon, shift, mode, kind, predraw, seed):
        served = _served(seed, horizon)
        fast, slow = (_generator(kind, seed, predraw) for _ in range(2))
        got = _release_early(served, shift, mode, fast)
        _same_bits(got, _release_oracle(served, shift, mode, slow))
        assert fast.uniform() == slow.uniform()
        assert fast.integers(1 << 40) == slow.integers(1 << 40)

    @pytest.mark.parametrize("mode", ["smooth", "blocks"])
    @pytest.mark.parametrize("kind", _BIT_GENERATORS)
    @pytest.mark.parametrize("predraw", [False, True])
    def test_matches_loop_on_long_horizons(self, mode, kind, predraw):
        # Blocks of 8 slots and more sum in numpy's unrolled pairwise order.
        sizes = [(3000, 40), (2999, 17), (3000, 8), (1000, 1)]
        for seed, (horizon, shift) in enumerate(sizes):
            served = _served(seed, horizon)
            fast, slow = (_generator(kind, seed, predraw) for _ in range(2))
            got = _release_early(served, shift, mode, fast)
            _same_bits(got, _release_oracle(served, shift, mode, slow))
            assert fast.uniform() == slow.uniform()

    @pytest.mark.parametrize("mode", ["smooth", "blocks"])
    @pytest.mark.parametrize("shift", [0, 1, 2, 8])
    def test_empty_horizon(self, mode, shift):
        fast, slow = (np.random.default_rng(1) for _ in range(2))
        served = np.empty(0)
        got = _release_early(served, shift, mode, fast)
        _same_bits(got, _release_oracle(served, shift, mode, slow))
        assert fast.uniform() == slow.uniform()

    @pytest.mark.parametrize("shift", [0, 3])
    def test_unknown_mode_rejected_at_every_shift(self, shift):
        with pytest.raises(ConfigError, match="'smooth' or 'blocks'"):
            _release_early(np.ones(5), shift, "bogus", np.random.default_rng(0))


# ---------------------------------------------------------------------------
# The predicate and the report agree

OFFLINE = OfflineConstraints(bandwidth=8, delay=2, utilization=0.5, window=4)
DELAY_ONLY = OfflineConstraints(bandwidth=8, delay=2)
FEASIBLE = ("feasible", "no utilization constraint", "idle profile")


def _cases():
    late = np.zeros(40)
    late[0] = 100.0  # needs 100 / 8 > D_O + 1 slots
    sparse = np.full(40, 1.0)  # window utilization 1/8 < 0.5
    sparse_late = sparse.copy()
    sparse_late[20] = 60.0
    return {
        "feasible": (np.full(40, 6.0), np.full(40, 8.0), OFFLINE),
        "cap only": (np.full(40, 6.0), np.full(40, 9.0), OFFLINE),
        "delay only": (late + 6.0, np.full(40, 8.0), OFFLINE),
        "windows only": (sparse, np.full(40, 8.0), OFFLINE),
        "windows and delay": (sparse_late, np.full(40, 8.0), OFFLINE),
        "all three": (sparse_late, np.full(40, 9.0), OFFLINE),
        "no utilization constraint": (sparse, np.full(40, 8.0), DELAY_ONLY),
        "idle profile": (np.zeros(40), np.zeros(40), OFFLINE),
    }


@pytest.mark.parametrize("name", list(_cases()))
def test_predicate_matches_report(name):
    arrivals, profile, offline = _cases()[name]
    report = check_stream_against_profile(arrivals, profile, offline)
    assert profile_serves(arrivals, profile, offline) is report.feasible
    assert report.feasible is (name in FEASIBLE)


def test_windows_and_delay_both_fail():
    arrivals, profile, offline = _cases()["windows and delay"]
    report = check_stream_against_profile(arrivals, profile, offline)
    assert "delay" in report.detail  # the report still replays before windows
    patient = OfflineConstraints(bandwidth=8, delay=20, utilization=0.5, window=20)
    report = check_stream_against_profile(arrivals, profile, patient)
    assert "utilization" in report.detail  # the windows fail on their own
    assert profile_serves(arrivals, profile, patient) is False


def test_length_mismatch_raises_in_both():
    for check in (check_stream_against_profile, profile_serves):
        with pytest.raises(ConfigError):
            check(np.ones(10), np.full(12, 8.0), OFFLINE)


@_SETTINGS
@given(
    seed=seeds,
    horizon=st.integers(min_value=1, max_value=80),
    level=st.floats(min_value=1.0, max_value=10.0),
    load=st.floats(min_value=0.1, max_value=1.5),
    utilization=st.booleans(),
)
def test_predicate_matches_report_on_random_streams(
    seed, horizon, level, load, utilization
):
    rng = np.random.default_rng(seed)
    profile = np.repeat(rng.uniform(0.5, 1.0, 4) * level, -(-horizon // 4))[:horizon]
    arrivals = rng.poisson(load * profile).astype(float)
    offline = OFFLINE if utilization else DELAY_ONLY
    report = check_stream_against_profile(arrivals, profile, offline)
    assert profile_serves(arrivals, profile, offline) is report.feasible


# ---------------------------------------------------------------------------
# The generators' outputs, as the loops produced them

_LEDGER_OFFLINE = OfflineConstraints(64.0, 8, 0.25, 16)


def _digest(*arrays, rng) -> str:
    h = hashlib.sha256()
    for array in arrays:
        h.update(np.ascontiguousarray(array).tobytes())
    h.update(repr(rng.uniform()).encode())  # pins how much was drawn
    return h.hexdigest()[:16]


_STREAM_CASES = {
    "smooth": ({}, ["2573e820f53a2cc8", "603ec537cbd07a58", "1897b369b37fb2af"]),
    "blocks": (
        {"burstiness": "blocks"},
        ["47132fc6b1393790", "0ddab090eeeb9165", "a3bd8e74355233b9"],
    ),
}


@pytest.mark.parametrize("name", list(_STREAM_CASES))
def test_feasible_stream_digests_pinned(name):
    # Two of the three block streams retry with a smaller shift.
    kwargs, pinned = _STREAM_CASES[name]
    digests = []
    for i in range(3):
        rng = np.random.default_rng([5, i])
        stream = generate_feasible_stream(_LEDGER_OFFLINE, 20_000, seed=rng, **kwargs)
        digests.append(_digest(stream.arrivals, stream.profile, rng=rng))
    assert digests == pinned


def test_block_streams_reach_the_shift_retry_ladder(monkeypatch):
    serves = feasibility.profile_serves
    verdicts = []

    def recording(*args):
        verdicts.append(serves(*args))
        return verdicts[-1]

    monkeypatch.setattr(feasibility, "profile_serves", recording)
    for i in range(3):
        generate_feasible_stream(
            _LEDGER_OFFLINE, 20_000, seed=np.random.default_rng([5, i]), burstiness="blocks"
        )
    assert verdicts.count(False) == 2 and verdicts.count(True) == 3


@pytest.mark.parametrize(
    "kwargs, pinned",
    [
        ({"k": 2, "horizon": 6000}, "e7b1b1897fcd2802"),
        (
            {"k": 8, "horizon": 4000, "burstiness": "blocks", "concentration": 0.7},
            "b67a3797ebd22304",
        ),
    ],
)
def test_multi_feasible_digests_pinned(kwargs, pinned):
    rng = np.random.default_rng([5, 9])
    workload = generate_multi_feasible(
        offline_bandwidth=64.0, offline_delay=8, seed=rng, **kwargs
    )
    assert _digest(workload.arrivals, workload.profiles, rng=rng) == pinned
