"""Scenario registry: coverage of every experiment, and all certify.

The acceptance bar for this subsystem is that ``repro verify`` can
certify *every* experiment in the registry — so the first test pins
scenario coverage to ``registry.all_ids()`` exactly, and the rest
replay each scenario at a small scale and require full certification.
"""

import pytest

from repro.errors import ExperimentError
from repro.experiments import registry
from repro.experiments.scenarios import certify_experiment, scenario_ids


def test_every_experiment_has_a_scenario():
    assert scenario_ids() == registry.all_ids()


def test_unknown_experiment_rejected():
    with pytest.raises(ExperimentError, match="E-NOPE"):
        certify_experiment("E-NOPE")


@pytest.mark.parametrize("experiment_id", scenario_ids())
def test_scenario_certifies(experiment_id):
    reports = certify_experiment(experiment_id, seed=0, scale=0.2)
    assert reports, "a scenario must produce at least one report"
    for report in reports:
        assert report.certified, report.render()
        assert report.checked_count >= 3, (
            "a certificate that checks almost nothing certifies nothing: "
            + report.render()
        )


def test_determinism_same_seed_same_verdicts():
    a = certify_experiment("E-T6", seed=3, scale=0.2)
    b = certify_experiment("E-T6", seed=3, scale=0.2)
    assert [r.as_dict() for r in a] == [r.as_dict() for r in b]


def test_seed_perturbs_workload_not_verdict():
    for seed in (1, 2):
        for report in certify_experiment("E-F2", seed=seed, scale=0.2):
            assert report.certified, report.render()
