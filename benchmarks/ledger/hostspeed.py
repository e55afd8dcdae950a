"""How fast the host ran while a pass ran, sampled from inside the pass.

The ledger's host is a shared 2-vCPU VM.  Its speed flips between full
and about half, in windows of tens of milliseconds to seconds, and the
share of slow time drifts over minutes.  CPU time slows as much as wall
time, so neither hides it, and one run of a workload can take 40% longer
than the run before it on the same inputs.

A :class:`Probe` times :func:`tick`, a fixed few microseconds of
interpreter work, from a ``SIGALRM`` handler every :data:`INTERVAL_S` of
wall time while it is entered.  The handler runs in the main thread
between bytecodes, so the ticks land inside the pass and see the same
slow windows it does; speed sampled between passes tracks the pass far
worse.  :meth:`Probe.factor` is the mean tick time over
:data:`REFERENCE_TICK_NS`: how many times slower than the reference host
the pass ran.  The mean, because a pass is slowed by the share of slow
windows it spans.  Ticks cost about 0.2% of the pass.

Nothing here imports ``repro``, so no change to the program changes a
tick's cost.
"""

from __future__ import annotations

import signal
import statistics
import time

#: Wall seconds between ticks.
INTERVAL_S = 0.01
#: Mean nanoseconds of one handled tick on the reference host (2-vCPU
#: x86-64 VM, Python 3.11.7) outside slow windows.
REFERENCE_TICK_NS = 16_000.0


def tick() -> float:
    """A fixed few microseconds of float arithmetic and branching."""
    x = 0.123456789
    total = 0.0
    for _ in range(200):
        x = 3.99 * x * (1.0 - x)
        total += x if x > 0.5 else -x
    return total


class Probe:
    """Ticks every :data:`INTERVAL_S` while entered; not reentrant."""

    def __init__(self) -> None:
        self.tick_ns: list[int] = []
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        began = time.perf_counter_ns()
        tick()
        self.tick_ns.append(time.perf_counter_ns() - began)

    def __enter__(self) -> "Probe":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self) -> float | None:
        """Mean tick time over the reference; None if no tick ran."""
        if not self.tick_ns:
            return None
        return statistics.fmean(self.tick_ns) / REFERENCE_TICK_NS


def scaled(seconds: list[float], probes: list[Probe]) -> list[float]:
    """Each time divided by its probe's factor.

    A probe with no ticks (a time shorter than :data:`INTERVAL_S`) uses
    the factor of all ticks together, and 1.0 if there are none.
    """
    pooled = [ns for probe in probes for ns in probe.tick_ns]
    fallback = statistics.fmean(pooled) / REFERENCE_TICK_NS if pooled else 1.0
    return [s / (probe.factor() or fallback) for s, probe in zip(seconds, probes)]
