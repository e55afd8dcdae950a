"""The unreliable signaling plane: lossy/laggy allocation requests.

In the paper an allocation change is costly but *instant and reliable*.
Real reservation signaling (RSVP-style setup messages, ATM renegotiation)
is neither: requests are dropped and delayed.  This module models that
plane at the link level, where a real plane lives:

* :class:`UnreliableLink` — a :class:`~repro.network.link.Link` whose
  ``set`` issues a *request* through a :class:`~repro.faults.plan.FaultPlan`
  instead of applying immediately.  A request may be lost (retried per the
  :class:`RetryPolicy`, with exponential backoff and seeded jitter) or
  applied ``d`` slots late.  ``requested`` keeps the controller's intent
  and ``bandwidth`` the grant; ``change_count`` counts *applied* changes
  and ``requested_changes`` requested ones, and the request/drop/retry/
  give-up counters quantify signaling cost.

* :func:`install_signaling` — swap a policy's links for unreliable ones
  in place: the one link of a single-session
  :class:`~repro.core.allocator.BandwidthPolicy`, or every per-session
  (and extra) link of a :class:`~repro.core.allocator.MultiSessionPolicy`.
  The policy keeps its exact type and its own ``link.set`` calls route
  through the plane; the engines tick the links every slot (see
  :mod:`repro.sim.vector`)::

      links = install_signaling(policy, plan, RetryPolicy(max_attempts=4))
      trace = run_single_session(policy, arrivals, faults=plan)
      give_ups = sum(link.give_ups for link in links)

* :class:`HeadroomPolicy` — graceful degradation: request ``factor ×`` the
  inner decision (capped) so the granted allocation still covers demand
  while requests are in flight or the wire is degraded.

Semantics chosen to match real reservation planes:

* **latest-wins** — a link carries at most one outstanding request; a new
  request supersedes (cancels) a pending one;
* **idempotent** — requesting the current target is free (no transaction);
* **revert cancels** — requesting the currently-applied value cancels any
  pending request.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.allocator import BandwidthPolicy, MultiSessionPolicy
from repro.errors import ConfigError, SignalingError
from repro.faults.plan import FaultPlan
from repro.network.link import CHANGE_EPSILON, Link
from repro.obs.runtime import count as obs_count, get_telemetry


@dataclass(frozen=True)
class RetryPolicy:
    """How a dropped allocation request is retried.

    Args:
        max_attempts: total tries per transaction (1 = never retry).
        base_backoff: slots before the first retry.
        backoff_factor: multiplier per further retry (exponential backoff).
        max_backoff: cap on the backoff in slots.
        jitter: adds a seeded uniform integer in ``[0, jitter]`` slots.
        give_up: after ``max_attempts`` drops, ``"hold"`` abandons the
            transaction (the last applied allocation stays; the policy may
            re-request next slot) or ``"raise"`` raises
            :class:`~repro.errors.SignalingError`.
    """

    max_attempts: int = 4
    base_backoff: int = 1
    backoff_factor: float = 2.0
    max_backoff: int = 64
    jitter: int = 1
    give_up: str = "hold"

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigError(
                f"max_attempts must be >= 1, got {self.max_attempts!r}"
            )
        if self.base_backoff < 1:
            raise ConfigError(
                f"base_backoff must be >= 1, got {self.base_backoff!r}"
            )
        if self.backoff_factor < 1.0:
            raise ConfigError(
                f"backoff_factor must be >= 1, got {self.backoff_factor!r}"
            )
        if self.max_backoff < 1:
            raise ConfigError(
                f"max_backoff must be >= 1, got {self.max_backoff!r}"
            )
        if self.jitter < 0:
            raise ConfigError(f"jitter must be >= 0, got {self.jitter!r}")
        if self.give_up not in ("hold", "raise"):
            raise ConfigError(
                f'give_up must be "hold" or "raise", got {self.give_up!r}'
            )

    def backoff(self, attempt: int, jitter_draw: float) -> int:
        """Slots to wait before retry number ``attempt`` (1-based):
        ``base_backoff * backoff_factor ** (attempt - 1)`` capped at
        ``max_backoff``, plus the jitter."""
        cap = float(self.max_backoff)
        exponent = attempt - 1
        # Well past the cap (by a factor e) the power is not formed: for
        # large attempts it overflows a float.
        past_cap = math.log(cap / self.base_backoff) + 1.0
        if exponent * math.log(self.backoff_factor) > past_cap:
            slots = self.max_backoff
        else:
            slots = int(min(cap, self.base_backoff * self.backoff_factor**exponent))
        return slots + int(jitter_draw * (self.jitter + 1))


#: No signaling retries: a dropped request is simply abandoned.
NO_RETRY = RetryPolicy(max_attempts=1)


class _Pending:
    """One in-flight signaling transaction (latest-wins, one per link)."""

    __slots__ = ("value", "due", "in_flight", "attempts", "t0")

    def __init__(self, value: float, t0: int = 0):
        self.value = value
        self.due = -1  # slot at which the next transition happens
        self.in_flight = False  # True = accepted, applying at `due`
        self.attempts = 0  # requests sent so far for this transaction
        self.t0 = t0  # slot the transaction was opened (telemetry spans)


class UnreliableLink(Link):
    """A link whose ``set`` goes through the unreliable signaling plane.

    ``set(t, bandwidth)`` records the controller's intent in
    :attr:`requested` (with :meth:`Link.set`'s ``CHANGE_EPSILON`` rule,
    counted in :attr:`requested_changes`) and issues a request for it; the
    return value reports whether the allocation *changed this slot* (it
    did only if the plane accepted the request with zero delay).
    ``tick(t)`` must be called once per slot, before the controller acts,
    to deliver due requests and issue due retries; the engines do.
    """

    def __init__(
        self,
        name: str,
        plan: FaultPlan,
        retry: RetryPolicy = RetryPolicy(),
        channel: int = 0,
        bandwidth: float = 0.0,
    ):
        super().__init__(name, bandwidth)
        self.plan = plan
        self.retry = retry
        self.channel = int(channel)
        self._pending: _Pending | None = None
        self._requested = self.bandwidth
        #: Slot of the last :meth:`set` call (see :meth:`resend`).
        self._set_t: int | None = None
        #: Changes of :attr:`requested` (``change_count`` counts applied ones).
        self.requested_changes = 0
        #: Signaling transactions opened (change requests issued).
        self.requests = 0
        #: Individual request messages lost by the plane.
        self.drops = 0
        #: Retry messages sent after a loss.
        self.retries = 0
        #: Transactions abandoned after ``max_attempts`` losses.
        self.give_ups = 0

    @property
    def requested(self) -> float:
        """The controller's intent; kept through a give-up."""
        return self._requested

    @property
    def target(self) -> float:
        """The value in transit if a request is pending, else the grant."""
        if self._pending is not None:
            return self._pending.value
        return self.bandwidth

    @property
    def idle(self) -> bool:
        """No transaction pending and the grant is the intent: until the
        next :meth:`set`, :meth:`tick` and :meth:`resend` do nothing."""
        return self._pending is None and self._requested == self.bandwidth

    def set(self, t: int, bandwidth: float) -> bool:
        if bandwidth < 0:
            raise ConfigError(f"bandwidth must be >= 0, got {bandwidth!r}")
        self._set_t = t
        if abs(bandwidth - self._requested) > CHANGE_EPSILON:
            self._requested = float(bandwidth)
            self.requested_changes += 1
        bandwidth = self._requested
        if abs(bandwidth - self.bandwidth) <= CHANGE_EPSILON:
            # Requesting the applied value: cancel any pending transaction.
            if self._pending is not None:
                self._conclude(t, self._pending, "cancelled")
                self._pending = None
            return False
        if (
            self._pending is not None
            and abs(bandwidth - self._pending.value) <= CHANGE_EPSILON
        ):
            return False  # already in flight — idempotent
        if self._pending is not None:
            self._conclude(t, self._pending, "superseded")
        self._pending = _Pending(bandwidth, t0=t)
        self.requests += 1
        obs_count("faults.signaling.requests")
        return self._attempt(t)

    def resend(self, t: int) -> None:
        """End of slot ``t``: re-request :attr:`requested` unless the
        controller called :meth:`set` in this slot, so the plane sees one
        request per slot (after a give-up that opens a fresh transaction)."""
        if self._set_t != t:
            self.set(t, self._requested)

    def tick(self, t: int) -> None:
        """Deliver a due in-flight request or issue a due retry."""
        pending = self._pending
        if pending is None or pending.due > t:
            return
        if pending.in_flight:
            self._pending = None
            self._conclude(t, pending, "applied")
            super().set(t, pending.value)
        else:
            self.retries += 1
            obs_count("faults.signaling.retries")
            self._attempt(t)

    def _attempt(self, t: int) -> bool:
        """Send one request message at slot ``t``; returns True iff the
        allocation was applied immediately."""
        pending = self._pending
        attempt = pending.attempts
        pending.attempts += 1
        if self.plan.drop_request(t, channel=self.channel, attempt=attempt):
            self.drops += 1
            obs_count("faults.signaling.drops")
            if pending.attempts >= self.retry.max_attempts:
                self.give_ups += 1
                obs_count("faults.signaling.give_ups")
                self._pending = None
                self._conclude(t, pending, "gave_up")
                if self.retry.give_up == "raise":
                    raise SignalingError(
                        f"link {self.name!r}: request for "
                        f"{pending.value:.6f} abandoned after "
                        f"{pending.attempts} attempts at t={t}"
                    )
                return False
            # Without jitter the draw is unused (and the plan keys draws by
            # attempt only below 256, so a long jitter-free retry run needs none).
            jitter = (
                self.plan.jitter(t, self.channel, pending.attempts)
                if self.retry.jitter
                else 0.0
            )
            pending.due = t + self.retry.backoff(pending.attempts, jitter)
            return False
        delay = self.plan.request_delay(t, channel=self.channel)
        if delay <= 0:
            self._pending = None
            self._conclude(t, pending, "applied")
            return super().set(t, pending.value)
        pending.in_flight = True
        pending.due = t + delay
        return False

    def _conclude(self, t: int, pending: _Pending, outcome: str) -> None:
        """Emit the transaction's telemetry span when a session is live."""
        tele = get_telemetry()
        if tele.enabled:
            tele.tracer.span(
                "signaling",
                pending.t0,
                t,
                kind="signaling",
                link=self.name,
                channel=self.channel,
                value=pending.value,
                attempts=pending.attempts,
                outcome=outcome,
            )


def install_signaling(
    policy: BandwidthPolicy | MultiSessionPolicy,
    plan: FaultPlan,
    retry: RetryPolicy = RetryPolicy(),
) -> list[UnreliableLink]:
    """Route ``policy``'s allocation changes through the signaling plane.

    Swaps, in place, a single-session policy's ``link``, or every
    session's regular and overflow link (in session order) and then the
    ``extra_link`` of a multi-session policy, for an
    :class:`UnreliableLink` with the same name and bandwidth on fault
    channel 0, 1, 2, ...  The policy keeps its exact type, so the engines
    still slice it; they tick the installed links every slot.  Install
    before the first slot.  Returns the installed links, whose counters
    sum to the run's signaling cost.
    """
    links: list[UnreliableLink] = []

    def swap(link: Link) -> UnreliableLink:
        unreliable = UnreliableLink(
            link.name, plan, retry, channel=len(links), bandwidth=link.bandwidth
        )
        links.append(unreliable)
        return unreliable

    if isinstance(policy, MultiSessionPolicy):
        for session in policy.sessions:
            channels = session.channels
            channels.regular_link = swap(channels.regular_link)
            channels.overflow_link = swap(channels.overflow_link)
        if policy.extra_link is not None:
            policy.extra_link = swap(policy.extra_link)
    else:
        policy.link = swap(policy.link)
    return links


class HeadroomPolicy(BandwidthPolicy):
    """Over-request by ``factor`` to absorb signaling faults gracefully.

    Requests ``min(cap, factor × inner decision)``.  Under a degraded link
    serving at fraction ``1/factor`` of the allocation, the effective
    bandwidth still covers the inner policy's intent; under signaling
    delay, the standing surplus absorbs queue growth while an increase is
    in flight.  The cost is utilization (and, if ``cap`` is raised above
    the inner ``B_A``, the max-bandwidth guarantee).

    Install the signaling plane on the headroom policy, so the inflated
    value is what gets requested and the inner policy keeps a reliable
    link::

        headroom = HeadroomPolicy(policy, 2.0)
        install_signaling(headroom, plan, retry)
    """

    def __init__(
        self,
        inner: BandwidthPolicy,
        factor: float,
        cap: float | None = None,
    ):
        if factor < 1.0:
            raise ConfigError(f"headroom factor must be >= 1, got {factor!r}")
        cap = inner.max_bandwidth if cap is None else float(cap)
        super().__init__(
            name=f"headroom({inner.link.name})", max_bandwidth=cap
        )
        self.inner = inner
        self.factor = float(factor)
        self.stage_starts = inner.stage_starts
        self.resets = inner.resets

    def decide(self, t: int, arrivals: float, backlog: float) -> float:
        desired = self.inner.decide(t, arrivals, backlog)
        self.link.set(t, min(self.max_bandwidth, desired * self.factor))
        return self.link.bandwidth
