"""The certificate checker's per-slot kernels against their old loops.

The conservation accumulate, the Lindley recursion, the FIFO replay and
``session_sums`` claim to compute the floats of the plain per-slot loops
they replaced.  Those loops are kept here verbatim as oracles, and every
comparison is exact: the same values, the same signs of zero, NaN where
NaN.  Hypothesis budgets follow ``REPRO_FUZZ_EXAMPLES``.

``certify_multi`` once had loops of its own: a conservation recursion
that resynchronized to the recorded backlog after each slip, and a FIFO
delay replay served at the recorded deliveries.  Both are kept as
oracles too.  On tampered traces the shared kernels give their verdicts
and the first conservation counterexample; later slips are counted by
``certify_single``'s rule.

The last tests pin ``certify(...).as_dict()`` on small traces of the
ledger's ``degraded`` and ``multi`` kinds to the digests the per-slot
loops produced, and bound the work of a tampered trace that hits the
conservation dust floor at every slot.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import deque
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.continuous import ContinuousMultiSession
from repro.core.phased import PhasedMultiSession
from repro.core.single_session import SingleSessionOnline
from repro.errors import ConfigError
from repro.faults.plan import standard_plan
from repro.obs.runtime import telemetry_session
from repro.params import OfflineConstraints
from repro.sim.engine import run_multi_session, run_single_session
from repro.traffic.feasible import generate_feasible_stream
from repro.traffic.multi import generate_multi_feasible
from repro.verify import certificates
from repro.verify.certificates import (
    _DUST,
    _EPS,
    _REPLAY_BLOCK,
    _conserved_queue,
    certify,
    certify_multi,
    certify_single,
    lindley_backlog,
    phased_bounds,
    raw_single_bounds,
    replay_fifo_service,
    session_sums,
    single_session_bounds,
)
from tests.strategies import FUZZ_EXAMPLES, seeds

_SETTINGS = settings(max_examples=FUZZ_EXAMPLES, deadline=None)

# ---------------------------------------------------------------------------
# Oracles: the per-slot loops the kernels replaced, verbatim.


def _conservation_oracle(kept, delivered, backlog):
    """The conserved queue (read as >= 0) and the slots that clamped it,
    one slot at a time; after a non-finite slot q resumes from the
    recorded backlog there, or from q before the slot."""
    derived, clamps, q = [], [], 0.0
    series = zip(kept.tolist(), delivered.tolist(), backlog.tolist())
    for t, (k, d, b) in enumerate(series):
        before, q = q, q + k - d
        if q < -_DUST * (t + 1):  # tolerate accumulated dust only
            clamps.append(t)
            q = -_DUST * (t + 1)
        derived.append(max(q, 0.0) if q < 0.0 else q)  # max(q, 0.0) is q itself
        if not math.isfinite(q):
            q = b if math.isfinite(b) else before
    return np.asarray(derived, dtype=float), clamps


def _lindley_oracle(arrivals, capacities):
    arrivals = np.asarray(arrivals, dtype=float)
    capacities = np.asarray(capacities, dtype=float)
    backlog = []
    q = 0.0
    for a, c in zip(arrivals.tolist(), capacities.tolist()):
        q = max(0.0, q + a - c)
        backlog.append(q)
    return np.asarray(backlog, dtype=float)


def _fifo_delays_oracle(arrivals, delivered):
    chunks: deque[list] = deque()  # [arrival_slot, bits]
    histogram: dict[int, float] = {}
    excess = 0.0
    for t in range(len(arrivals)):
        bits_in = float(arrivals[t])
        if bits_in > _DUST:
            chunks.append([t, bits_in])
        remaining = float(delivered[t])
        while remaining > _DUST and chunks:
            arrival, bits = chunks[0]
            take = bits if bits <= remaining else remaining
            delay = t - arrival
            histogram[delay] = histogram.get(delay, 0.0) + take
            remaining -= take
            if take >= bits - _DUST:
                chunks.popleft()
            else:
                chunks[0][1] = bits - take
        if remaining > _DUST:
            excess += remaining
    return histogram, excess


def _fifo_service_oracle(kept, capacity, bound=None):
    kept = np.asarray(kept, dtype=float)
    capacity = np.asarray(capacity, dtype=float)
    chunks: deque[list] = deque()  # [arrival_slot, bits]
    size = 0.0
    histogram: dict[int, float] = {}
    late: list[tuple[int, int]] = []
    delivered = np.empty(len(kept))
    for start in range(0, len(kept), _REPLAY_BLOCK):
        stop = start + _REPLAY_BLOCK
        served_block = []
        pairs = zip(kept[start:stop].tolist(), capacity[start:stop].tolist())
        for t, (bits_in, remaining) in enumerate(pairs, start):
            if bits_in > _DUST:
                chunks.append([t, bits_in])
                size += bits_in
            served = 0.0
            while remaining > 0.0 and chunks:
                arrival, bits = chunks[0]
                take = bits if bits <= remaining else remaining
                delay = t - arrival
                histogram[delay] = histogram.get(delay, 0.0) + take
                if bound is not None and delay > bound:
                    late.append((t, delay))
                served += take
                remaining -= take
                size -= take
                if take >= bits - _DUST:
                    chunks.popleft()
                else:
                    chunks[0][1] = bits - take
            if not chunks or size < _DUST:
                size = 0.0
                chunks.clear()
            served_block.append(served)
        delivered[start:stop] = served_block
    return delivered, histogram, late


def _multi_conservation_oracle(kept, delivered, backlog, finite):
    slots, k = kept.shape
    bad_slots: list[tuple[int, int]] = []
    for i in range(k):
        q = 0.0
        session_finite = finite[:, i].tolist()
        for t in range(slots):
            if not session_finite[t]:
                bad_slots.append((t, i))
                continue
            q = q + kept[t, i] - delivered[t, i]
            gap = abs(max(0.0, q) - backlog[t, i]) / max(1.0, abs(backlog[t, i]))
            if q < -_DUST * (t + 1) or gap > _EPS:
                bad_slots.append((t, i))
                q = backlog[t, i]  # resynchronize so one slip reports once
    return bad_slots


def _session_sums_oracle(series):
    return np.asarray([sum(row) for row in np.asarray(series).tolist()], dtype=float)


# ---------------------------------------------------------------------------
# Exact comparison and inputs


def _same(got, want) -> None:
    """Equal floats, equal signs of zero, NaN exactly where NaN."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.isnan(got).tolist() == nan.tolist()
    assert got[~nan].tolist() == want[~nan].tolist()
    assert np.signbit(got[~nan]).tolist() == np.signbit(want[~nan]).tolist()


def _same_histogram(got: dict, want: dict) -> None:
    assert list(got) == list(want)  # same delays, in the same insertion order
    _same(list(got.values()), list(want.values()))


#: Values at the edges of the kernels' branches: signed zeros, dust on
#: both sides of the 1e-9 threshold, non-finite values.
_EDGES = [0.0, -0.0, 1e-12, 5e-10, 1e-9, 1.5e-9, 1e-6, 0.5, 1.0, 4.0]
_EDGES += [math.inf, math.nan]

slot_values = st.one_of(
    st.sampled_from(_EDGES),
    st.floats(min_value=0.0, max_value=16.0),
    st.floats(min_value=-1e-8, max_value=1e-8),
)


@st.composite
def series_pairs(draw, max_slots: int = 120, count: int = 2):
    """``count`` (two) equal-length per-slot series mixing edge values and
    plain ones."""
    slots = draw(st.integers(min_value=0, max_value=max_slots))
    values = st.lists(slot_values, min_size=slots, max_size=slots)
    return tuple(np.asarray(draw(values), dtype=float) for _ in range(count))


@st.composite
def queue_pairs(draw, max_slots: int = 300):
    """Finite bursty arrivals against a capacity: the queue fills and drains."""
    rng = np.random.default_rng(draw(seeds))
    slots = draw(st.integers(min_value=1, max_value=max_slots))
    arrivals = rng.poisson(2.0, slots) * rng.uniform(0.0, 3.0, slots)
    dust = rng.random(slots) < draw(st.sampled_from([0.0, 0.2, 0.5]))
    arrivals[dust] = rng.uniform(0.0, 2e-9, int(dust.sum()))
    capacity = np.full(slots, draw(st.sampled_from([0.0, 1e-9, 1.5, 3.0, 8.0])))
    if draw(st.booleans()):
        capacity = capacity * rng.uniform(0.0, 2.0, slots)
    return arrivals, capacity


# ---------------------------------------------------------------------------
# Single-series kernels


def _check_conservation(kept, delivered, backlog=None):
    backlog = np.zeros(len(kept)) if backlog is None else backlog
    queue, clamps = _conserved_queue(kept, delivered, backlog)
    derived, clamped = _conservation_oracle(kept, delivered, backlog)
    _same(queue, derived)
    assert np.flatnonzero(clamps).tolist() == clamped


class TestConservation:
    @_SETTINGS
    @given(series_pairs(count=3))
    def test_matches_oracle_on_edge_values(self, series):
        _check_conservation(*series)

    @_SETTINGS
    @given(queue_pairs())
    def test_matches_oracle_on_queues(self, pair):
        kept, capacity = pair
        delivered, _, _ = _fifo_service_oracle(kept, capacity)
        # An honest trace, then one that over-delivers at random slots.
        _check_conservation(kept, delivered)
        assert not _conserved_queue(kept, delivered, np.zeros(len(kept)))[1].any()
        tampered = delivered + np.where(np.arange(len(kept)) % 7 == 3, 1e-9, 0.0)
        _check_conservation(kept, tampered)

    def test_clamps_across_block_boundaries(self):
        slots = 3 * _REPLAY_BLOCK + 17
        rng = np.random.default_rng(5)
        kept = rng.poisson(1.0, slots) * rng.uniform(0.0, 2.0, slots)
        delivered = kept.copy()
        block = _REPLAY_BLOCK
        for t in (0, block - 1, block, 2 * block + 3, slots - 1):
            delivered[t] += 1.0  # each one clamps q at the dust floor
        delivered[100:140] += 3e-9  # a run of clamps, one per slot
        _check_conservation(kept, delivered)

    def test_empty(self):
        queue, clamps = _conserved_queue(np.array([]), np.array([]), np.array([]))
        assert queue.shape == clamps.shape == (0,)


class TestLindley:
    @_SETTINGS
    @given(series_pairs())
    def test_matches_oracle_on_edge_values(self, pair):
        arrivals, capacities = pair
        want = _lindley_oracle(arrivals, capacities)
        _same(lindley_backlog(arrivals, capacities), want)

    @_SETTINGS
    @given(queue_pairs())
    def test_matches_oracle_on_queues(self, pair):
        arrivals, capacities = pair
        want = _lindley_oracle(arrivals, capacities)
        _same(lindley_backlog(arrivals, capacities), want)

    def test_zero_and_inf_capacity(self):
        arrivals = np.array([3.0, 0.0, 1e-10, 2.0])
        for value in (0.0, math.inf):
            capacities = np.full(4, value)
            want = _lindley_oracle(arrivals, capacities)
            _same(lindley_backlog(arrivals, capacities), want)


def _check_fifo_service(kept, capacity, bound):
    got = replay_fifo_service(kept, capacity, bound)
    delivered, histogram, late = _fifo_service_oracle(kept, capacity, bound)
    _same(got.delivered, delivered)
    _same_histogram(got.histogram, histogram)
    assert got.late == late


class TestFifoService:
    @_SETTINGS
    @given(series_pairs(), st.sampled_from([None, -1, 0, 1, 3]))
    def test_matches_oracle_on_edge_values(self, pair, bound):
        _check_fifo_service(*pair, bound)

    @_SETTINGS
    @given(queue_pairs(), st.sampled_from([None, 0, 2, 8]))
    def test_matches_oracle_on_queues(self, pair, bound):
        _check_fifo_service(*pair, bound)

    def test_dust_arrivals(self):
        kept = np.array([1e-10, 1e-9, 2e-9, 5e-10, 3.0, 1e-9])
        for capacity in (np.full(6, 1.0), np.full(6, 1e-9), np.zeros(6)):
            _check_fifo_service(kept, capacity, 1)

    def test_zero_and_inf_capacity(self):
        kept = np.array([2.0, 0.0, 5.0, 1e-12, 1.0])
        for value in (0.0, math.inf):
            _check_fifo_service(kept, np.full(5, value), 0)

    def test_crosses_blocks(self):
        rng = np.random.default_rng(9)
        slots = 2 * _REPLAY_BLOCK + 11
        kept = rng.poisson(2.0, slots) * rng.uniform(0.0, 3.0, slots)
        _check_fifo_service(kept, np.full(slots, 3.5), 2)


def _neumaier_sum(row):
    """CPython 3.12's float ``sum``, transcribed: compensated after ``0 + x_0``."""
    if not row:
        return 0.0
    total, carry = 0 + row[0], 0.0
    for x in row[1:]:
        t = total + x
        if abs(total) >= abs(x):
            carry += (total - t) + x
        else:
            carry += (x - t) + total
        total = t
    return total + carry if carry and math.isfinite(carry) else total


def _left_to_right_sum(row):
    total = 0
    for x in row:
        total = total + x
    return float(total)


#: Addends whose sums round, cancel, overflow and go non-finite.
sum_values = st.one_of(
    slot_values,
    st.sampled_from([-1.0, 0.1, 1e16, -1e16, 1e308, -1e308, -math.inf]),
    st.floats(),
)


@st.composite
def session_series(draw):
    k = draw(st.integers(min_value=0, max_value=9))
    slots = draw(st.integers(min_value=0, max_value=40))
    values = draw(st.lists(sum_values, min_size=slots * k, max_size=slots * k))
    return np.asarray(values, dtype=float).reshape(slots, k)


class TestSessionSums:
    @_SETTINGS
    @given(session_series())
    def test_matches_python_sum(self, series):
        _same(session_sums(series), _session_sums_oracle(series))

    @pytest.mark.parametrize("compensated", [False, True])
    @_SETTINGS
    @given(series=session_series())
    def test_both_summation_orders(self, compensated, series):
        # Whichever interpreter runs the suite, check the order of the other.
        reference = _neumaier_sum if compensated else _left_to_right_sum
        want = np.asarray([reference(row) for row in series.tolist()], dtype=float)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(certificates, "_COMPENSATED_SUM", compensated)
            _same(session_sums(series), want.reshape(-1))

    def test_negative_zero_row(self):
        series = np.array([[-0.0, -0.0], [-0.0, 1.0]])
        _same(session_sums(series), _session_sums_oracle(series))  # 0 + -0.0 is 0.0


class TestInputValidation:
    @pytest.mark.parametrize(
        "kernel",
        [lindley_backlog, replay_fifo_service],
        ids=["lindley_backlog", "replay_fifo_service"],
    )
    @pytest.mark.parametrize(
        "first, second",
        [
            (np.float64(1.0), np.float64(1.0)),  # 0-D
            (np.ones((3, 2)), np.ones((3, 2))),  # 2-D
            (np.ones(3), np.ones((3, 1))),
            (np.ones(3), np.ones(2)),  # unequal length
        ],
        ids=["0-D", "2-D", "mixed", "unequal"],
    )
    def test_config_error(self, kernel, first, second):
        with pytest.raises(ConfigError):
            kernel(first, second)


# ---------------------------------------------------------------------------
# Multi-session checks, through certify_multi


_MULTI_FIELDS = ("delivered", "backlog", "arrivals", "dropped", "extra_allocation")


def _multi_trace(seed: int, k: int = 2, slots: int = 120, policy: str = "phased"):
    arrivals = np.random.default_rng(seed).poisson(2, size=(slots, k)).astype(float)
    if policy == "continuous":
        engine = ContinuousMultiSession(k, offline_bandwidth=32.0, offline_delay=4)
    else:
        engine = PhasedMultiSession(
            k, offline_bandwidth=32.0, offline_delay=4, fifo=policy == "fifo"
        )
    return run_multi_session(engine, arrivals, max_drain_slots=100_000)


def _tamper(trace, tampers) -> None:
    for t, session, name, value in tampers:
        series = getattr(trace, name)
        if series.ndim == 2:
            series[t % len(series), session % trace.k] += value
        else:
            series[t % len(series)] += value


def _multi_inputs(trace):
    """kept, delivered, backlog and the finite mask, as certify_multi
    derives them."""
    arrivals = np.asarray(trace.arrivals, dtype=float)
    dropped = np.asarray(trace.dropped, dtype=float)
    offered_totals = arrivals.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        share = 1.0 - dropped / np.maximum(offered_totals, _DUST)
        keep = np.where(offered_totals > _DUST, share, 1.0)
        kept = arrivals * keep[:, None]
    finite = np.logical_and.reduce(
        [
            np.isfinite(np.asarray(series, dtype=float))
            for series in (
                arrivals,
                trace.regular_allocation,
                trace.overflow_allocation,
                trace.delivered,
                trace.backlog,
            )
        ]
    )
    finite &= np.logical_and.reduce(
        [
            np.isfinite(np.asarray(series, dtype=float))
            for series in (trace.extra_allocation, dropped, trace.requested_total)
        ]
    )[:, None]
    delivered = np.asarray(trace.delivered, dtype=float)
    backlog = np.asarray(trace.backlog, dtype=float)
    return kept, delivered, backlog, finite


def _oracle_slips(trace):
    """The old multi-session loop's slips: it resynchronized q to the
    recorded backlog after each one."""
    return _multi_conservation_oracle(*_multi_inputs(trace))


def _single_rule_slips(trace):
    """Each session's slips under certify_single's rule, from the oracles:
    a clamp at the dust floor, or a gap to the recorded backlog (any
    non-finite slot fails)."""
    kept, delivered, backlog, finite = _multi_inputs(trace)
    slips = []
    for i in range(trace.k):
        recorded = backlog[:, i]
        derived, clamped = _conservation_oracle(kept[:, i], delivered[:, i], recorded)
        clamps = set(clamped)
        with np.errstate(invalid="ignore"):
            gap = np.abs(derived - recorded) / np.maximum(1.0, np.abs(recorded))
        for t in range(len(derived)):
            if t in clamps or not finite[t, i] or gap[t] > _EPS:
                slips.append((t, i))
    return slips


def _check(report, name):
    (check,) = [c for c in report.checks if c.name == name]
    return check


def _assert_conservation_matches(trace) -> None:
    report = certify_multi(trace, phased_bounds(32.0, 4, trace.k, feasible=False))
    check = _check(report, "conservation")
    resynced, slips = _oracle_slips(trace), _single_rule_slips(trace)
    # The old loop's verdict and first counterexample ...
    assert check.passed is (not resynced)
    shown = [(c.t, int(c.values["session"])) for c in check.counterexamples]
    assert shown[:1] == resynced[:1]
    # ... and certify_single's count of the slips after it.
    if slips:
        assert check.detail == f"{len(slips)} (slot, session) pairs break conservation"
    assert shown == slips[: certificates._MAX_EXAMPLES]


def _oracle_delay_replay_passes(trace) -> bool:
    """The old multi-session delay-replay verdict, from its FIFO loop."""
    kept, delivered, _, _ = _multi_inputs(trace)
    for i in range(trace.k):
        histogram, excess = _fifo_delays_oracle(kept[:, i], delivered[:, i])
        recorded = {
            int(d): float(b) for d, b in dict(trace.delay_histograms[i]).items()
        }
        bits, recorded_bits = sum(histogram.values()), sum(recorded.values())
        if (
            excess > _EPS
            or abs(bits - recorded_bits) > _EPS * max(1.0, bits)
            or max(histogram, default=0) > max(recorded, default=0)
        ):
            return False
    return True


def _assert_delay_replay_matches(trace) -> None:
    report = certify_multi(trace, phased_bounds(32.0, 4, trace.k, feasible=False))
    assert _check(report, "delay-replay").passed is _oracle_delay_replay_passes(trace)


def tamper_lists(values):
    return st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=119),
            st.integers(min_value=0, max_value=7),
            st.sampled_from(_MULTI_FIELDS),
            st.sampled_from(values),
        ),
        max_size=6,
    )


_TAMPERS = [4.0, -3.0, 1e-7, 1e-4, math.nan, math.inf]
_EDGE_TAMPERS = _EDGES + [-value for value in _EDGES if value > 0]


class TestMultiConservation:
    @_SETTINGS
    @given(st.sampled_from([2, 3]), tamper_lists(_TAMPERS))
    def test_resync_path_matches_oracle(self, k, tampers):
        trace = _multi_trace(7, k)
        _tamper(trace, tampers)
        _assert_conservation_matches(trace)

    def test_clean_trace(self):
        _assert_conservation_matches(_multi_trace(3, k=3))

    def test_every_slot_slips(self):
        trace = _multi_trace(4)
        trace.backlog += 10.0  # the recursion never catches up
        _assert_conservation_matches(trace)

    def test_phantom_dust_adds_up_against_the_floor(self):
        # 5e-7 bits each sit above the per-slot floor -1e-9·(t+1) after
        # slot 2000; a recursion that reset q to 0 every slot missed them.
        trace = _multi_trace(3, k=2, slots=3000)
        idle = (trace.arrivals == 0) & (trace.delivered == 0) & (trace.backlog == 0)
        idle[:2000] = False
        assert idle.sum() > 100
        trace.delivered[idle] += 5e-7
        report = certify_multi(trace, phased_bounds(32.0, 4, 2, feasible=False))
        assert _check(report, "conservation").passed is False
        _assert_conservation_matches(trace)


class TestFifoDelays:
    """The multi-session delay replay: :func:`replay_fifo_service` served
    at the recorded deliveries, against the old loop's verdict."""

    @_SETTINGS
    @given(st.sampled_from([2, 3]), tamper_lists(_EDGE_TAMPERS))
    def test_matches_oracle_on_edge_values(self, k, tampers):
        trace = _multi_trace(5, k)
        _tamper(trace, tampers)
        _assert_delay_replay_matches(trace)
        _assert_conservation_matches(trace)

    @_SETTINGS
    @given(
        seeds,
        st.integers(min_value=2, max_value=8),
        st.sampled_from(["phased", "fifo", "continuous"]),
        tamper_lists(_TAMPERS),
    )
    def test_matches_oracle_on_queues(self, seed, k, policy, tampers):
        trace = _multi_trace(seed, k, policy=policy)
        _assert_delay_replay_matches(trace)
        _tamper(trace, tampers)
        _assert_delay_replay_matches(trace)
        _assert_conservation_matches(trace)


# ---------------------------------------------------------------------------
# Whole certificates, before and after


#: The ledger's Figure 3 parameters: B_A = B_O = 64, D_O = 8, U_O = 0.25, W = 16.
_OFFLINE = OfflineConstraints(64.0, 8, 0.25, 16)


def _ledger_kind_traces():
    """Small ``degraded`` (faulted + telemetry) and ``multi`` (phased) traces."""
    runs = []
    raw = raw_single_bounds(_OFFLINE.bandwidth, _OFFLINE.delay)
    full = single_session_bounds(_OFFLINE)
    for i in range(2):
        stream = generate_feasible_stream(
            _OFFLINE, 4000, seed=np.random.default_rng([0, i])
        )
        policy = SingleSessionOnline(64.0, 8, 0.25, 16)
        plan = standard_plan(0.3, len(stream.arrivals), 0)
        faulted = run_single_session(policy, stream.arrivals, faults=plan)
        runs.append((faulted, raw, None))
        with telemetry_session():
            policy = SingleSessionOnline(64.0, 8, 0.25, 16)
            watched = run_single_session(policy, stream.arrivals)
        runs.append((watched, full, stream.profile))
    for i, (k, horizon) in enumerate(((2, 3000), (8, 2000))):
        workload = generate_multi_feasible(
            k,
            _OFFLINE.bandwidth,
            _OFFLINE.delay,
            horizon,
            seed=np.random.default_rng([0, i]),
            burstiness="blocks",
            concentration=0.7,
        )
        policy = PhasedMultiSession(k, _OFFLINE.bandwidth, _OFFLINE.delay)
        trace = run_multi_session(policy, workload.arrivals)
        bounds = phased_bounds(_OFFLINE.bandwidth, _OFFLINE.delay, k)
        runs.append((trace, bounds, workload.profiles))
    return runs


def _digest(report) -> str:
    blob = json.dumps(report.as_dict(), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


#: ``certify(...).as_dict()`` digests of :func:`_ledger_kind_traces`, as the
#: per-slot loops the kernels replaced computed them.
_PINNED = [
    "280bbfb522387309",
    "df0a86bf4a282f0d",
    "62a6ebe4bb84c6ac",
    "79a7da3d019af451",
    "dc8f464db75c4dac",
    "42be04ebebf7e6c1",
]


def test_ledger_kind_certificates_unchanged():
    digests = [
        _digest(certify(trace, bounds, profile=profile))
        for trace, bounds, profile in _ledger_kind_traces()
    ]
    assert digests == _PINNED


# ---------------------------------------------------------------------------
# A trace at the dust floor every slot


class _CountingAdd:
    """``np.add`` whose ``accumulate`` tallies the elements it is given."""

    def __init__(self):
        self.elements = 0

    def accumulate(self, values, *args, **kwargs):
        self.elements += len(values)
        return np.add.accumulate(values, *args, **kwargs)


def _floor_trace(slots: int):
    """Delivers bits it never held, clamping q to the dust floor each slot."""
    ones = np.ones(slots)
    return SimpleNamespace(
        arrivals=np.zeros(slots),
        allocation=ones,
        delivered=np.full(slots, 1e-3),
        backlog=np.zeros(slots),
        dropped=np.zeros(slots),
        effective=ones,
        requested=ones,
        delay_histogram={},
        changes=[],
    )


@pytest.mark.parametrize("slots", [1_000, 20_000])
def test_dust_floor_every_slot_fails_in_linear_work(monkeypatch, slots):
    add = _CountingAdd()
    shim = SimpleNamespace(**vars(np))
    shim.add = add
    monkeypatch.setattr(certificates, "np", shim)
    trace = _floor_trace(slots)
    report = certify_single(trace, raw_single_bounds(64.0, 8))
    assert not report.certified
    (check,) = [c for c in report.checks if c.name == "conservation"]
    assert check.passed is False
    assert check.detail == f"{slots} slots break conservation"
    # Every slot clamps, so after the first span the accumulate restarts
    # at each slot with 3 elements.
    assert add.elements <= 2 * _REPLAY_BLOCK + 1 + 3 * slots
    monkeypatch.undo()
    _check_conservation(trace.arrivals, trace.delivered, trace.backlog)
