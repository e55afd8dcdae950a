"""Exception hierarchy for the reproduction library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything coming out of this package with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigError(ReproError, ValueError):
    """A parameter set is invalid (e.g. negative bandwidth, ``W < D_O``)."""


class FeasibilityError(ReproError):
    """An input stream violates the feasibility assumption of the paper.

    The paper's footnote 1: "whenever we consider an algorithm with given
    constraints we always assume that all the input streams are feasible;
    i.e., can be served within these constraints."
    """


class SimulationError(ReproError, RuntimeError):
    """The simulation engine detected an impossible state (internal bug)."""


class SignalingError(ReproError, RuntimeError):
    """An allocation request was abandoned by the signaling plane.

    Raised only when a :class:`repro.faults.RetryPolicy` is configured with
    ``give_up="raise"``; the default ``"hold"`` keeps the last applied
    allocation and lets the policy re-request.
    """


class ExperimentError(ReproError):
    """An experiment harness was misconfigured or produced no results."""


class ResilienceError(ReproError, RuntimeError):
    """A batch shard exhausted its retry budget in strict mode.

    Raised only when :class:`repro.runner.resilience.RunPolicy` is
    configured with ``strict=True``; the default keep-going mode
    quarantines exhausted shards into ``BatchReport.failed`` instead.
    ``failed`` carries the structured reports gathered so far.
    """

    def __init__(self, message: str, failed=()):
        self.failed = list(failed)
        super().__init__(message)
