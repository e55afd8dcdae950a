"""Tests for the exception hierarchy."""

import pytest

from repro.errors import (
    ConfigError,
    ExperimentError,
    FeasibilityError,
    ReproError,
    SimulationError,
)


class TestHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [ConfigError, ExperimentError, FeasibilityError, SimulationError],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)

    def test_config_error_is_value_error(self):
        assert issubclass(ConfigError, ValueError)

    def test_simulation_error_is_runtime_error(self):
        assert issubclass(SimulationError, RuntimeError)

    def test_single_except_clause_catches_everything(self):
        for exc in (ConfigError("x"), FeasibilityError("y"),
                    SimulationError("z")):
            with pytest.raises(ReproError):
                raise exc
