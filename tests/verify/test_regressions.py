"""Minimized regressions pinned from differential-fuzzing findings.

Each test here reproduces, at minimal size, an issue the verification
harness surfaced while it was being built.  Keep them tiny and exact:
they are the record of what the fuzzer actually caught.
"""

import numpy as np
import pytest

from repro.adversary.differential import certified_single_run
from repro.core.baselines import StaticAllocator
from repro.obs.registry import MetricsRegistry
from repro.params import OfflineConstraints
from repro.sim.engine import run_single_session
from repro.traffic.feasible import generate_feasible_stream
from repro.verify.certificates import (
    certify_single,
    raw_single_bounds,
    single_session_bounds,
)
from repro.verify.oracle import min_changes_oracle
from tests.opt_bruteforce import min_changes_bruteforce


class TestSubUnitBandwidthGrid:
    """Found by the oracle/enumerator differential: the enumerator's
    inline level grid (powers of two down to 1) was EMPTY for B_O < 1 and
    raised ``ConfigError("empty level grid")`` before trying a single
    schedule.  Fixed by sharing :func:`repro.verify.oracle.default_levels`,
    whose floor is ``min(1, B_O)``."""

    def test_enumerator_no_longer_raises(self):
        offline = OfflineConstraints(bandwidth=0.25, delay=2)
        assert min_changes_bruteforce(np.array([0.2]), offline) == 0

    def test_oracle_agrees_on_the_minimized_case(self):
        offline = OfflineConstraints(bandwidth=0.25, delay=2)
        oracle = min_changes_oracle(np.array([0.2]), offline)
        assert oracle.feasible and oracle.changes == 0


class TestGhostCounterOnMalformedMerge:
    """Found by the snapshot-merge property tests: ``merge_snapshot``
    created the counter *before* parsing its value, so a malformed entry
    left a ghost zero-valued counter behind — violating the documented
    'malformed sections are skipped' contract and perturbing later
    snapshots.  Minimized: one bad counter, empty registry after."""

    def test_malformed_counter_leaves_no_trace(self):
        registry = MetricsRegistry()
        registry.merge_snapshot({"counters": {"ghost": "NaN-ish"}})
        assert registry.snapshot()["counters"] == {}


class TestClaim2IsConditional:
    """Found by fuzzing raw (uncertified) workloads through the checker:
    Claim 2 (``B_on >= q/D_A``) was initially checked unconditionally,
    but on an infeasible overload the queue exceeds ``B_A·D_A`` and *no*
    allocation under the cap can satisfy it — the paper's claim simply
    assumes a feasible input.  The fix gates the conditional bounds on
    ``assume_feasible``; this pins both sides at minimal size."""

    # 3 slots of B_A overload against a 1-bit/slot link: queue grows past
    # any claim-2-satisfiable level immediately.
    _ARRIVALS = [64.0, 64.0, 64.0]

    def _trace(self):
        return run_single_session(
            StaticAllocator(1.0), self._ARRIVALS, drain=False
        )

    def test_raw_bounds_skip_claim2_and_certify(self):
        report = certify_single(self._trace(), raw_single_bounds(64.0, 8))
        (claim2,) = [c for c in report.checks if c.name == "claim2"]
        assert claim2.skipped
        assert report.certified, report.render()

    def test_feasible_bounds_would_fail_claim2(self):
        offline = OfflineConstraints(
            bandwidth=64.0, delay=8, utilization=0.25, window=16
        )
        report = certify_single(self._trace(), single_session_bounds(offline))
        (claim2,) = [c for c in report.checks if c.name == "claim2"]
        assert claim2.passed is False
        assert claim2.counterexamples, "failure must carry slot evidence"


class TestChangeAccountingStartsAtZero:
    """Found reconciling the checker's derived switch count with the
    engine's change log: links start at bandwidth 0, so a trace whose
    first allocation is nonzero carries one more change than
    ``np.diff`` sees.  A constant-allocation run is the minimal case."""

    def test_initial_set_counts_as_one_change(self):
        trace = run_single_session(StaticAllocator(4.0), [1.0, 1.0])
        assert trace.change_count == 1
        report = certify_single(trace, raw_single_bounds(64.0, 8))
        (changes,) = [c for c in report.checks if c.name == "changes"]
        assert changes.passed is True, changes.render()


class TestLemma5AtAShortWindowStageStart:
    """Hypothesis drew this certified workload in
    ``test_differential.py::TestCertifiedWorkloads::test_single_session_certifies``
    (the CHANGES.md FOUND line on Lemma 5).  Figure 3's allocation jumps
    from 1.0 to B_A = 8.0 at slot 28, and the best trailing window there
    reaches 0.0711 against U_O/3 = 0.0833.  Pinned as a strict xfail:
    whichever of the check's window bound or the policy is mended, this
    test starts passing and must then lose its marker."""

    @pytest.mark.xfail(
        strict=True,
        reason="CHANGES.md FOUND: lemma5 fails at slot 28 (margin -0.0122) "
        "on a certified W = D_O = 2 workload",
    )
    def test_certified_workload_passes_lemma5(self):
        offline = OfflineConstraints(8.0, 2, 0.25, 2)
        stream = generate_feasible_stream(
            offline, 32, segments=4, seed=0, burstiness="smooth"
        )
        _, report = certified_single_run(
            stream.arrivals, offline, profile=stream.profile
        )
        (lemma5,) = [c for c in report.checks if c.name == "lemma5"]
        assert lemma5.passed, (
            [c.t for c in lemma5.counterexamples],
            lemma5.margin,
        )
