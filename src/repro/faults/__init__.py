"""Fault injection: unreliable signaling, degraded links, ingress loss.

The paper's model assumes every allocation change takes effect instantly
and every arriving bit reaches the queue.  This package drops those
assumptions so the degradation of each guarantee can be *measured*:

* :mod:`repro.faults.plan` — :class:`FaultPlan`, a seeded deterministic
  schedule of fault events composed from primitives
  (:class:`LinkDegradation`, :class:`SignalLoss`, :class:`SignalDelay`,
  :class:`SignalOutage`, :class:`IngressDrop`).
* :mod:`repro.faults.signaling` — the unreliable signaling plane:
  :class:`UnreliableLink` (requests may be dropped or applied late, with
  :class:`RetryPolicy` backoff), :func:`install_signaling`, which swaps
  a single- or multi-session policy's links for unreliable ones in place
  (the engines tick them), and :class:`HeadroomPolicy` (over-request to
  absorb signaling latency).

The engines take a plan via ``faults=``; what the faults cost is measured
afterwards by replaying the trace through :mod:`repro.verify.certificates`.
"""

from repro.faults.plan import (
    FaultPlan,
    IngressDrop,
    LinkDegradation,
    SignalDelay,
    SignalLoss,
    SignalOutage,
    standard_plan,
)
from repro.faults.signaling import (
    NO_RETRY,
    HeadroomPolicy,
    RetryPolicy,
    UnreliableLink,
    install_signaling,
)

__all__ = [
    "FaultPlan",
    "HeadroomPolicy",
    "IngressDrop",
    "LinkDegradation",
    "NO_RETRY",
    "RetryPolicy",
    "SignalDelay",
    "SignalLoss",
    "SignalOutage",
    "UnreliableLink",
    "install_signaling",
    "standard_plan",
]
