"""The combined single/multi-session algorithm of Section 4.

``k`` sessions share a channel whose *total* bandwidth must also satisfy a
joint utilization constraint.  The paper's construction layers the two
previous algorithms:

* A **global controller** runs the single-session envelope (``low``/``high``
  of Section 2, on Figure 3's stage kernel) on the *aggregate* arrival
  stream and maintains ``B_glob = pow2(low)`` — the online estimate of the
  offline total bandwidth.  A **global stage** ends when ``high < low``
  (the offline algorithm made a *global* change); the online makes at most
  ``log2(B_A)`` global moves per global stage.

* An **inner multi-session algorithm** (Figure 4 phased, or Figure 5
  continuous) runs with ``B_O := B_glob``.  A **local stage** ends when a
  GLOBAL RESET fires, when ``B_glob`` moves (the inner loop restarts with
  the new parameter), or when the inner regular channel overflows — at
  most ``O(k)`` local changes each, hence ``O(k · log B_A)`` per offline
  local change.

* On **GLOBAL RESET** the sessions' queues are moved to a *global overflow
  queue* served by a dedicated channel of ``2 · B_O``, allocated
  proportionally among the sessions' backlogs, while the new global stage
  starts immediately (unlike the single-session RESET there is no drain
  wait).

Guarantees (§4): delay ``2·D_O``, total utilization ``U_O / 3``, total
bandwidth ``7·B_O`` (phased inner) or ``8·B_O`` (continuous inner).

Interpretation choices are documented in DESIGN.md §5 (the paper gives
only an informal description of this algorithm).
"""

from __future__ import annotations

from typing import Sequence

from repro.core.allocator import MultiSessionPolicy
from repro.core.continuous import ContinuousMultiSession
from repro.core.phased import PhasedMultiSession
from repro.core.powers import PowerOfTwoQuantizer, Quantizer
from repro.core.stagekernel import StageKernel
from repro.errors import ConfigError
from repro.network.channel import serve_for
from repro.network.link import Link
from repro.network.queue import EPSILON, BitQueue


class CombinedMultiSession(MultiSessionPolicy):
    """Section 4: global envelope controller over an inner multi-session loop.

    Args:
        k: number of sessions.
        offline_bandwidth: ``B_O`` — the offline total bandwidth (must sit
            on the quantizer grid, i.e. a power of two by default).
        offline_delay: ``D_O``.
        offline_utilization: ``U_O`` — joint utilization floor of the
            offline comparator.
        window: ``W >= D_O`` — the utilization window.
        inner: ``"phased"`` or ``"continuous"``.
        fifo: per-session FIFO service in the inner loop.
        quantizer: the global bandwidth grid (default: powers of two).
    """

    def __init__(
        self,
        k: int,
        offline_bandwidth: float,
        offline_delay: int,
        offline_utilization: float,
        window: int,
        inner: str = "phased",
        fifo: bool = False,
        quantizer: Quantizer | None = None,
    ):
        super().__init__(k=k, fifo=fifo)
        if window < offline_delay:
            raise ConfigError(
                f"the paper assumes W >= D_O; got W={window}, D_O={offline_delay}"
            )
        self.offline_bandwidth = float(offline_bandwidth)
        self.offline_delay = int(offline_delay)
        self.offline_utilization = float(offline_utilization)
        self.window = int(window)
        self.quantizer: Quantizer = quantizer or PowerOfTwoQuantizer()
        if abs(self.quantizer(self.offline_bandwidth) - self.offline_bandwidth) > 1e-12:
            raise ConfigError(
                f"B_O={offline_bandwidth!r} must be on the quantizer grid"
            )
        if inner == "phased":
            self.inner: PhasedMultiSession | ContinuousMultiSession = (
                PhasedMultiSession(k, offline_bandwidth=1.0, offline_delay=offline_delay, fifo=fifo)
            )
            bandwidth_slack = 7.0
        elif inner == "continuous":
            self.inner = ContinuousMultiSession(
                k, offline_bandwidth=1.0, offline_delay=offline_delay, fifo=fifo
            )
            bandwidth_slack = 8.0
        else:
            raise ConfigError(f"inner must be 'phased' or 'continuous', got {inner!r}")
        # The inner loop's sessions ARE this policy's sessions.
        self.sessions = self.inner.sessions
        self.max_bandwidth = bandwidth_slack * self.offline_bandwidth
        self.online_delay = 2 * self.offline_delay

        self._kernel = StageKernel(
            self.offline_delay,
            self.offline_utilization,
            self.window,
            self.offline_bandwidth,
        )
        #: Virtual counter of *global* bandwidth moves (``B_glob`` changes).
        self.global_link = Link("global")
        #: The real global-overflow channel engaged by GLOBAL RESETs.
        self.extra_link = Link("global-overflow")
        self.global_overflow_capacity = 2.0 * self.offline_bandwidth
        self._global_queues = [BitQueue(f"s{i}.global.q") for i in range(k)]
        self._b_glob = 1.0
        # The run's first slot is end-tested like every later one: the
        # fresh kernel meets it through advance(), against B_glob = 1.
        self._kernel.set_rung(self._b_glob, 1.0)
        self._started = False

    # -- global machinery ------------------------------------------------------

    def _global_target(self, low: float) -> float:
        return max(1.0, self.quantizer(low))

    def _move(self, t: int, target: float) -> None:
        """Set ``B_glob``; the inner loop restarts its local stage."""
        self.global_link.set(t, target)
        self._b_glob = target
        self.inner.restart_stage(t, target)

    def _global_reset(self, t: int, arrivals_total: float) -> None:
        """GLOBAL RESET: steal all queues into the global overflow channel
        and open a fresh global stage immediately."""
        self.resets.append(t)
        for session, global_queue in zip(self.sessions, self._global_queues):
            channels = session.channels
            channels.overflow_queue.drain_to(global_queue)
            channels.regular_queue.drain_to(global_queue)
        self.inner.cancel_overflow(t)
        # The new stage's first slot is not end-tested, and B_glob is not
        # capped at B_O (a rung at or above B_O only disables climbing).
        target = self._global_target(self._kernel.start(arrivals_total))
        self._kernel.set_rung(target, 1.0)
        self.stage_starts.append(t)
        self._move(t, target)

    def _serve_global_overflow(self, t: int) -> list[float]:
        """Serve the stolen queues with ``2·B_O`` split proportionally; each
        delivery counts for the session the bits were stolen from.
        Returns the bits each session got."""
        sizes = [q.size for q in self._global_queues]
        total = sum(sizes)
        if total <= EPSILON:
            self.extra_link.set(t, 0.0)
            return [0.0] * self.k
        self.extra_link.set(t, self.global_overflow_capacity)
        served = []
        for session, size, queue in zip(self.sessions, sizes, self._global_queues):
            bits = serve_for(session, queue, t, self.global_overflow_capacity * (size / total))
            session.bits_delivered += bits
            served.append(bits)
        return served

    # -- the slot step -----------------------------------------------------------

    def step(self, t: int, arrivals: Sequence[float]) -> list[float]:
        total_arrivals = float(sum(arrivals))
        if not self._started:
            self._started = True
            self.stage_starts.append(t)
            self.global_link.set(t, self._b_glob)
            self.inner.restart_stage(t, self._b_glob)
            # restart_stage records a local reset that is really the
            # initial start; drop it from the inner stage accounting.
            if self.inner.resets:
                self.inner.resets.pop()
        kernel = self._kernel
        end, rung = kernel.advance(total_arrivals)
        if end:
            self._global_reset(t, total_arrivals)
        elif rung:
            # Global move: the total-bandwidth envelope climbs one or
            # more power-of-two rungs; the local stage restarts.
            self._move(
                t,
                kernel.climb(
                    self._b_glob,
                    self._global_target(kernel.current_low()),
                    self.quantizer,
                    1.0,
                ),
            )
        inner = self.inner.step(t, arrivals)
        extra = self._serve_global_overflow(t)
        return [a + b for a, b in zip(inner, extra)]

    # -- accounting ---------------------------------------------------------------

    @property
    def total_backlog(self) -> float:
        inner = sum(s.backlog for s in self.sessions)
        stolen = sum(q.size for q in self._global_queues)
        return inner + stolen

    def session_backlogs(self) -> list[float]:
        """A stolen bit stays in its session's backlog until it is served."""
        return [s.backlog + q.size for s, q in zip(self.sessions, self._global_queues)]

    @property
    def global_change_count(self) -> int:
        """Moves of the global bandwidth estimate ``B_glob``."""
        return self.global_link.change_count

    @property
    def local_stage_count(self) -> int:
        """Local stages completed by the inner loop."""
        return len(self.inner.resets)

    @property
    def b_glob(self) -> float:
        """Current global bandwidth estimate."""
        return self._b_glob
