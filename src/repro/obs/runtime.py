"""The telemetry runtime: one current :class:`Telemetry` per process.

The instrumented layers (engine, core algorithms, fault plane) read the
*current* telemetry through :func:`get_telemetry` at
their entry points.  By default it is :data:`DISABLED` — a telemetry whose
registry, tracer, and profiler are all shared no-ops — so an uninstrumented
run pays one attribute check per emission site and nothing per slot (the
engine checks ``enabled`` once per ``step`` call and once per run).  Telemetry never feeds back
into a simulation, so traces are bit-identical with it on or off.

Enable it for one scope::

    from repro.obs import telemetry_session

    with telemetry_session() as tele:
        trace = run_single_session(policy, arrivals)
    tele.registry.snapshot()          # metrics
    tele.tracer.spans                 # stage/signaling spans
    tele.profiles                     # slots/sec timings

or process-wide with :func:`set_telemetry`.  Sparse emitters (stage
starts, signaling events) can use the module-level
:func:`count` / :func:`observe` helpers, which are no-ops when disabled.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.obs.profiling import NULL_TIMER, ProfileRecord, ProfileTimer
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry
from repro.obs.tracing import NULL_TRACER, Tracer


class Telemetry:
    """A registry + tracer + profile sink, enabled or a bundle of no-ops."""

    __slots__ = ("enabled", "registry", "tracer", "profiles")

    def __init__(self, enabled: bool = True):
        self.enabled = bool(enabled)
        self.registry = MetricsRegistry() if enabled else NULL_REGISTRY
        self.tracer = Tracer() if enabled else NULL_TRACER
        self.profiles: list[ProfileRecord] = []

    def profile(self, name: str) -> "ProfileTimer | object":
        """A wall-clock timer recording into :attr:`profiles` (or a no-op)."""
        if not self.enabled:
            return NULL_TIMER
        return ProfileTimer(name, self.profiles)

    def profile_summary(self) -> list[dict]:
        """JSON-ready list of every completed profile record."""
        return [record.as_dict() for record in self.profiles]


#: The process-default telemetry: everything off.
DISABLED = Telemetry(enabled=False)

_current: Telemetry = DISABLED


def get_telemetry() -> Telemetry:
    """The telemetry instrumented code should emit into right now."""
    return _current


def set_telemetry(telemetry: Telemetry | None) -> Telemetry:
    """Install ``telemetry`` process-wide (None restores :data:`DISABLED`)."""
    global _current
    _current = telemetry if telemetry is not None else DISABLED
    return _current


@contextmanager
def telemetry_session(telemetry: Telemetry | None = None):
    """Scope a (new, live by default) telemetry; restores the previous one."""
    telemetry = telemetry if telemetry is not None else Telemetry()
    previous = _current
    set_telemetry(telemetry)
    try:
        yield telemetry
    finally:
        set_telemetry(previous)


def count(name: str, amount: float = 1.0) -> None:
    """Increment a counter on the current telemetry (no-op when disabled)."""
    if _current.enabled:
        _current.registry.counter(name).inc(amount)
