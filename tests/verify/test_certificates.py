"""Certificate checker: clean traces certify, tampered traces do not.

The checker's whole value is that it re-derives every series from the
raw trace — so the key tests corrupt one recorded field at a time and
assert that exactly the right check catches it.
"""

import ast
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.core.phased import PhasedMultiSession
from repro.core.single_session import SingleSessionOnline
from repro.errors import ConfigError
from repro.params import OfflineConstraints
from repro.sim.engine import run_multi_session, run_single_session
from repro.traffic.feasible import generate_feasible_stream
from repro.verify.certificates import (
    best_window_utilizations,
    certify,
    certify_multi,
    certify_single,
    claim9_series,
    combined_bounds,
    continuous_bounds,
    lindley_backlog,
    phased_bounds,
    raw_single_bounds,
    replay_fifo_service,
    single_session_bounds,
    switch_count,
)

_OFFLINE = OfflineConstraints(bandwidth=32.0, delay=4, utilization=0.25, window=8)


def _failed(report, name):
    (check,) = [c for c in report.checks if c.name == name]
    return check.passed is False


def _clean_trace(seed=0, horizon=400):
    stream = generate_feasible_stream(_OFFLINE, horizon, segments=4, seed=seed)
    policy = SingleSessionOnline(32.0, 4, 0.25, 8)
    trace = run_single_session(policy, stream.arrivals, max_drain_slots=100_000)
    return stream, trace


def _clean_multi_trace():
    arrivals = np.random.default_rng(3).poisson(2, size=(150, 2)).astype(float)
    policy = PhasedMultiSession(2, offline_bandwidth=32.0, offline_delay=4)
    return run_multi_session(policy, arrivals, max_drain_slots=100_000)


def _idle(arrivals, delivered, backlog):
    """Slots (or slot, session cells) that start and end with no queue."""
    before = np.concatenate([np.zeros_like(backlog[:1]), backlog[:-1]])
    return (arrivals == 0) & (delivered == 0) & (backlog == 0) & (before == 0)


def _imported_modules(source: str, package: str):
    """Every module a source imports, wherever the import sits, with
    relative imports resolved against ``package``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package.rsplit(".", node.level - 1)[0] if node.level else ""
            yield ".".join(part for part in (base, node.module) if part)


class TestCheckerIndependence:
    def test_no_engine_imports(self):
        """The checker must not trust the code it is checking: a module of
        repro.verify imports from repro only repro.verify, repro.errors and
        repro.params, at module level or inside a function."""
        import repro.verify as package

        allowed = ("repro.verify", "repro.errors", "repro.params")
        modules = sorted(Path(package.__file__).parent.glob("*.py"))
        assert len(modules) >= 5
        for path in modules:
            for name in _imported_modules(path.read_text(), "repro.verify"):
                if name != "repro" and not name.startswith("repro."):
                    continue
                assert any(name == a or name.startswith(a + ".") for a in allowed), (
                    f"{path.name} imports {name}, breaking checker independence"
                )

    def test_the_boundary_check_sees_function_level_and_relative_imports(self):
        source = (
            "def f():\n    from repro.sim.engine import run_single_session\n"
            "from . import report\nfrom .. import core\nimport repro\n"
        )
        assert sorted(_imported_modules(source, "repro.verify")) == [
            "repro",
            "repro",
            "repro.sim.engine",
            "repro.verify",
        ]


class TestCleanTracesCertify:
    def test_single_with_profile(self):
        stream, trace = _clean_trace()
        report = certify_single(
            trace, single_session_bounds(_OFFLINE), profile=stream.profile
        )
        assert report.certified, report.render()
        # With a profile and full constraints nothing is skipped.
        assert report.checked_count == len(report.checks)

    def test_dispatch_matches_explicit(self):
        stream, trace = _clean_trace()
        bounds = single_session_bounds(_OFFLINE)
        via_dispatch = certify(trace, bounds, profile=stream.profile)
        explicit = certify_single(trace, bounds, profile=stream.profile)
        assert via_dispatch.as_dict()["checks"] == explicit.as_dict()["checks"]

    def test_multi_phased(self):
        rng = np.random.default_rng(7)
        arrivals = rng.poisson(2, size=(200, 3)).astype(float)
        policy = PhasedMultiSession(3, offline_bandwidth=32.0, offline_delay=4)
        trace = run_multi_session(policy, arrivals, max_drain_slots=100_000)
        report = certify_multi(trace, phased_bounds(32.0, 4, 3, feasible=False))
        assert report.certified, report.render()

    def test_raw_bounds_skip_conditional_checks(self):
        _, trace = _clean_trace()
        report = certify_single(trace, raw_single_bounds(32.0, 4))
        assert report.certified
        skipped = {c.name for c in report.checks if c.skipped}
        assert {"claim2", "lemma3", "corollary4", "lemma5"} <= skipped


class TestTamperedTracesFail:
    """Each corruption must be caught by the check that owns that series."""

    def test_inflated_delivery_breaks_conservation(self):
        _, trace = _clean_trace()
        trace.delivered[10] += 5.0
        report = certify_single(trace, single_session_bounds(_OFFLINE))
        assert not report.certified
        assert _failed(report, "conservation")

    def test_understated_backlog_breaks_conservation(self):
        _, trace = _clean_trace()
        busy = int(np.argmax(trace.backlog))
        trace.backlog[busy] *= 0.5
        report = certify_single(trace, single_session_bounds(_OFFLINE))
        assert _failed(report, "conservation")

    def test_served_beyond_effective_breaks_conservation(self):
        _, trace = _clean_trace()
        t = int(np.argmax(trace.backlog))
        trace.effective[t] = trace.delivered[t] / 2.0
        report = certify_single(trace, single_session_bounds(_OFFLINE))
        assert _failed(report, "conservation")

    def test_shifted_histogram_breaks_delay_replay(self):
        _, trace = _clean_trace()
        histogram = dict(trace.delay_histogram)
        delay, bits = max(histogram.items())
        del histogram[delay]
        histogram[delay + 3] = bits  # claim those bits waited longer
        trace.delay_histogram = histogram
        report = certify_single(trace, single_session_bounds(_OFFLINE))
        assert _failed(report, "delay-replay")

    def test_starved_allocation_breaks_claim2(self):
        _, trace = _clean_trace()
        busy = int(np.argmax(trace.backlog))
        # Pretend the policy allocated nothing while the queue was deep —
        # mirror into `requested` so strict change accounting stays on the
        # same series and the claim2 check owns the failure.
        trace.allocation[busy] = 0.0
        trace.requested[busy] = 0.0
        report = certify_single(trace, single_session_bounds(_OFFLINE))
        assert _failed(report, "claim2")

    def test_over_cap_allocation_breaks_max_bandwidth(self):
        _, trace = _clean_trace()
        trace.allocation[5] = 100.0
        trace.requested[5] = 100.0
        report = certify_single(trace, single_session_bounds(_OFFLINE))
        assert _failed(report, "max-bandwidth")

    def test_dropped_change_log_entry_breaks_changes(self):
        _, trace = _clean_trace()
        assert trace.changes, "fixture must switch at least once"
        trace.changes = trace.changes[:-1]
        report = certify_single(trace, single_session_bounds(_OFFLINE))
        assert _failed(report, "changes")

    def test_forged_queue_breaks_corollary4(self):
        stream, trace = _clean_trace()
        # A backlog far above anything the offline schedule would hold.
        trace.backlog += 1000.0
        report = certify_single(
            trace, single_session_bounds(_OFFLINE), profile=stream.profile
        )
        assert not report.certified  # conservation also fires; both should
        assert _failed(report, "corollary4")

    def test_multi_tamper_detected(self):
        trace = _clean_multi_trace()
        trace.delivered[20, 0] += 4.0
        report = certify_multi(trace, phased_bounds(32.0, 4, 2, feasible=False))
        assert not report.certified

    @pytest.mark.parametrize("bits", ["one-bit", "dust-every-idle-slot"])
    def test_phantom_delivery_from_empty_queue_breaks_conservation(self, bits):
        stream, trace = _clean_trace()
        idle = _idle(trace.arrivals, trace.delivered, trace.backlog)
        if bits == "one-bit":
            assert idle[4]
            trace.delivered[4] += 1.0
        else:
            trace.delivered[idle] += 5e-7
        report = certify_single(
            trace, single_session_bounds(_OFFLINE), profile=stream.profile
        )
        assert _failed(report, "conservation")
        (check,) = [c for c in report.checks if c.name == "conservation"]
        first = check.counterexamples[0]
        assert first.t == int(np.argmax(idle))
        assert first.detail == "delivered more than the queue held"

    @pytest.mark.parametrize("bits", ["one-bit", "dust-every-idle-slot"])
    def test_multi_phantom_delivery_breaks_conservation(self, bits):
        trace = _clean_multi_trace()
        idle = _idle(trace.arrivals, trace.delivered, trace.backlog)
        if bits == "one-bit":
            assert idle[4, 0]
            trace.delivered[4, 0] += 1.0
        else:
            trace.delivered[idle] += 5e-7
        report = certify_multi(trace, phased_bounds(32.0, 4, 2, feasible=False))
        assert _failed(report, "conservation")


class TestNonFiniteTracesFail:
    """A NaN or inf compares false against every bound; conservation
    fails the slot that holds it, and certify still returns a report."""

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize(
        "field",
        ["arrivals", "allocation", "delivered", "backlog", "dropped", "effective", "requested"],
    )
    def test_single(self, field, value):
        stream, trace = _clean_trace()
        getattr(trace, field)[70] = value
        report = certify(trace, single_session_bounds(_OFFLINE), profile=stream.profile)
        assert not report.certified
        (check,) = [c for c in report.checks if c.name == "conservation"]
        assert check.passed is False
        assert 70 in [example.t for example in check.counterexamples]

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize(
        "field",
        [
            "arrivals",
            "regular_allocation",
            "overflow_allocation",
            "delivered",
            "backlog",
            "extra_allocation",
            "requested_total",
            "dropped",
        ],
    )
    def test_multi(self, field, value):
        trace = _clean_multi_trace()
        series = getattr(trace, field)
        series[(20, 1) if series.ndim == 2 else 20] = value
        report = certify(trace, phased_bounds(32.0, 4, 2, feasible=False))
        assert not report.certified
        assert _failed(report, "conservation")
        (check,) = [c for c in report.checks if c.name == "conservation"]
        assert 20 in [example.t for example in check.counterexamples]

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_single_checks_every_slot_after_a_non_finite_one(self, value):
        # The derived queue resumes from the recorded backlog after the
        # non-finite slot, so a later slip is still found.
        _, trace = _clean_trace()
        assert trace.arrivals[10] > 0
        trace.backlog[300] += 50.0
        trace.arrivals[10] = value
        report = certify_single(trace, single_session_bounds(_OFFLINE))
        (check,) = [c for c in report.checks if c.name == "conservation"]
        assert [example.t for example in check.counterexamples] == [10, 300]
        assert check.detail == "2 slots break conservation"
        # The margin is the worst finite gap: slot 300's.
        backlog = trace.backlog[300]
        assert check.margin == pytest.approx(-50.0 / backlog)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_multi_checks_every_slot_after_a_non_finite_one(self, value):
        trace = _clean_multi_trace()
        assert trace.arrivals[10, 0] > 0
        trace.backlog[100, 0] += 50.0
        trace.arrivals[10, 0] = value
        report = certify_multi(trace, phased_bounds(32.0, 4, 2, feasible=False))
        (check,) = [c for c in report.checks if c.name == "conservation"]
        shown = [(c.t, int(c.values["session"])) for c in check.counterexamples]
        assert shown == [(10, 0), (100, 0)]
        assert check.detail == "2 (slot, session) pairs break conservation"

    def test_multi_opposite_infinities_fail_without_warnings(self):
        trace = _clean_multi_trace()
        trace.arrivals[20] = [np.inf, -np.inf]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = certify(trace, phased_bounds(32.0, 4, 2, feasible=False))
        assert _failed(report, "conservation")

    def test_multi_consecutive_infinite_allocations_are_changes(self):
        # inf - inf is NaN: the steps into, between and out of the two
        # infinite slots are three changes the log does not hold.
        trace = _clean_multi_trace()
        trace.regular_allocation[50:52, 1] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = certify_multi(trace, phased_bounds(32.0, 4, 2, feasible=False))
        assert _failed(report, "changes")

    def test_cli_rejects_a_nan_trace(self, tmp_path, capsys):
        from repro.cli import main
        from repro.sim.serialize import load_single_trace, save_single_trace

        path = tmp_path / "t.npz"
        simulate = ["simulate", "--policy", "fig3", "--traffic", "onoff", "--horizon", "2000"]
        assert main(simulate + ["--save-trace", str(path)]) == 0
        assert main(["verify", str(path), "--uncertified"]) == 0
        trace = load_single_trace(path)
        trace.backlog[700] = np.nan
        save_single_trace(tmp_path / "bad.npz", trace)
        capsys.readouterr()
        assert main(["verify", str(tmp_path / "bad.npz"), "--uncertified"]) != 0
        assert "conservation" in capsys.readouterr().out


class TestBoundFactories:
    def test_single_session_doubles_delay(self):
        bounds = single_session_bounds(_OFFLINE)
        assert bounds.online_delay == 2 * _OFFLINE.delay
        assert bounds.max_bandwidth == _OFFLINE.bandwidth
        assert bounds.online_utilization == pytest.approx(_OFFLINE.utilization / 3)
        assert bounds.online_window == _OFFLINE.window + 5 * _OFFLINE.delay
        assert bounds.assume_feasible

    def test_phased_and_continuous_slack(self):
        phased = phased_bounds(16.0, 4, k=4)
        continuous = continuous_bounds(16.0, 4, k=4)
        assert phased.max_bandwidth == 4 * 16.0
        assert continuous.max_bandwidth == 5 * 16.0
        assert phased.overflow_factor == 2.0
        assert continuous.overflow_factor == 3.0
        assert phased.regular_bound == pytest.approx(2 * 16.0 + 16.0 / 4)

    def test_combined_slack(self):
        offline = OfflineConstraints(bandwidth=16.0, delay=4)
        assert combined_bounds(offline, k=2).max_bandwidth == 7 * 16.0
        assert (
            combined_bounds(offline, k=2, inner="continuous").max_bandwidth
            == 8 * 16.0
        )

    def test_validation(self):
        with pytest.raises(ConfigError):
            raw_single_bounds(-1.0, 4)
        with pytest.raises(ConfigError):
            phased_bounds(16.0, 0, k=2)

    @pytest.mark.parametrize("bandwidth", [np.nan, np.inf, 0.0])
    def test_offline_bandwidth_must_be_finite_and_positive(self, bandwidth):
        # A NaN bound compares false against every allocation: it would
        # certify any trace.
        for factory in (raw_single_bounds, phased_bounds, continuous_bounds):
            args = (bandwidth, 4) if factory is raw_single_bounds else (bandwidth, 4, 2)
            with pytest.raises(ConfigError, match="finite and > 0"):
                factory(*args)

    def test_cli_rejects_a_nan_bound(self, tmp_path):
        from repro.cli import main

        single, multi = tmp_path / "single.npz", tmp_path / "multi.npz"
        simulate = ["simulate", "--horizon", "600", "--save-trace"]
        onoff = ["--policy", "fig3", "--traffic", "onoff"]
        assert main(simulate + [str(single)] + onoff) == 0
        assert main(["verify", str(single), "--uncertified", "--bandwidth", "1"]) != 0
        phased = ["--policy", "phased", "--traffic", "multi-feasible", "--sessions", "2"]
        assert main(simulate + [str(multi)] + phased) == 0
        for path in (single, multi):
            with pytest.raises(ConfigError, match="finite and > 0"):
                main(["verify", str(path), "--uncertified", "--bandwidth", "nan"])


class TestCorollary4Profiles:
    """A broken certificate profile is an error, not a pass: the Lindley
    recursion reads a NaN or negative capacity as service."""

    @pytest.mark.parametrize("value", [np.nan, np.inf, -1.0])
    def test_single_rejects_a_non_finite_or_negative_profile(self, value):
        stream, trace = _clean_trace(horizon=600)
        bounds = single_session_bounds(_OFFLINE)
        assert certify_single(trace, bounds, profile=stream.profile).certified
        profile = np.array(stream.profile, dtype=float)
        profile[len(profile) // 2] = value
        with pytest.raises(ConfigError, match="finite and >= 0"):
            certify_single(trace, bounds, profile=profile)
        with pytest.raises(ConfigError, match="finite and >= 0"):
            certify_single(trace, bounds, profile=np.full(len(profile), value))

    def test_single_rejects_a_2d_profile(self):
        stream, trace = _clean_trace()
        bounds = single_session_bounds(_OFFLINE)
        with pytest.raises(ConfigError, match="does not fit"):
            certify(trace, bounds, profile=stream.profile[:, None])

    @pytest.mark.parametrize("shape", ["1-D", "one column", "three columns"])
    def test_multi_needs_one_column_per_session(self, shape):
        trace = _clean_multi_trace()
        bounds = phased_bounds(32.0, 4, 2)
        horizon = len(trace.arrivals)
        profiles = {
            "1-D": np.full(horizon, 64.0),
            "one column": np.full((horizon, 1), 64.0),
            "three columns": np.full((horizon, 3), 64.0),
        }[shape]
        with pytest.raises(ConfigError, match="does not fit"):
            certify_multi(trace, bounds, profiles=profiles)

    def test_multi_rejects_a_nan_profile(self):
        trace = _clean_multi_trace()
        profiles = np.full((len(trace.arrivals), 2), 64.0)
        bounds = phased_bounds(32.0, 4, 2)
        assert certify_multi(trace, bounds, profiles=profiles).certified
        profiles[10, 1] = np.nan
        with pytest.raises(ConfigError, match="finite and >= 0"):
            certify_multi(trace, bounds, profiles=profiles)


class TestSeriesHelpers:
    def test_replay_against_delivered_hand_example(self):
        # The multi-session delay replay serves at the recorded deliveries:
        # 4 bits at t=0 served 2/slot leave 2 at delay 0 and 2 at delay 1.
        delivered = np.array([2.0, 2.0])
        service = replay_fifo_service(np.array([4.0, 0.0]), delivered)
        assert service.delivered.tolist() == delivered.tolist()
        assert service.histogram == {0: 2.0, 1: 2.0}

    def test_replay_reports_phantom_service(self):
        # Delivering 3 bits of a 1-bit queue: the replay serves 1, and the
        # other 2 are bits the session never held.
        delivered = np.array([3.0])
        service = replay_fifo_service(np.array([1.0]), delivered)
        assert (delivered - service.delivered).sum() == pytest.approx(2.0)

    def test_lindley_recursion(self):
        backlog = lindley_backlog(
            np.array([5.0, 0.0, 4.0]), np.array([2.0, 2.0, 2.0])
        )
        np.testing.assert_allclose(backlog, [3.0, 1.0, 3.0])

    def test_lindley_recursion_matches_numpy_scalar_loop(self):
        rng = np.random.default_rng(11)
        arrivals = rng.poisson(3.0, 2000) * rng.uniform(0.1, 2.0, 2000)
        capacities = rng.uniform(0.0, 6.0, 2000)
        want = np.empty_like(arrivals)
        q = 0.0
        for t in range(len(arrivals)):
            q = max(0.0, q + arrivals[t] - capacities[t])
            want[t] = q
        assert lindley_backlog(arrivals, capacities).tolist() == want.tolist()
        assert lindley_backlog(np.array([]), np.array([])).shape == (0,)

    def test_switch_count_counts_initial_rise(self):
        assert switch_count(np.array([0.0, 0.0, 2.0, 2.0, 1.0])) == 2
        assert switch_count(np.array([2.0, 2.0])) == 1  # 0 -> 2 at t=0
        assert switch_count(np.array([0.0, 0.0])) == 0
        assert switch_count(np.array([])) == 0

    def test_switch_count_counts_non_finite_steps(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert switch_count(np.array([2.0, np.inf, np.inf, 2.0])) == 4
            assert switch_count(np.array([np.nan, np.nan])) == 2  # 0 -> NaN, NaN -> NaN
            assert switch_count(np.array([0.0, -np.inf, 1e308, -1e308])) == 3

    def test_best_window_utilizations_flat_full_load(self):
        arrivals = np.full(10, 4.0)
        allocation = np.full(10, 4.0)
        best = best_window_utilizations(arrivals, allocation, max_window=3)
        assert np.all(best[np.isfinite(best)] == pytest.approx(1.0))

    def test_claim9_excess_constant_rate_within_envelope(self):
        arrivals = np.full(50, 4.0)
        excess, _ = claim9_series(arrivals, offline_bandwidth=8.0, offline_delay=4)
        assert excess.max() <= 0.0
