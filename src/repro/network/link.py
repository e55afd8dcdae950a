"""A link (or virtual channel) with an allocated bandwidth and a change log.

The paper's cost metric is the *number of bandwidth allocation changes*; the
link is therefore little more than a current value plus a faithful record of
every time that value actually changed (assignments of the same value are
free, matching "it takes time to setup the *modified* bandwidth
allocation").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError

#: Allocation changes smaller than this are considered no-ops.
CHANGE_EPSILON = 1e-9


@dataclass
class BandwidthChange:
    """One recorded allocation change."""

    t: int
    old: float
    new: float


class Link:
    """Bandwidth holder with change accounting."""

    def __init__(self, name: str = "", bandwidth: float = 0.0):
        if bandwidth < 0:
            raise ConfigError(f"bandwidth must be >= 0, got {bandwidth!r}")
        self.name = name
        self._bandwidth = float(bandwidth)
        self.changes: list[BandwidthChange] = []

    def __repr__(self) -> str:
        return f"Link(name={self.name!r}, bandwidth={self._bandwidth:.3f})"

    @property
    def bandwidth(self) -> float:
        """Currently allocated bandwidth (bits per slot)."""
        return self._bandwidth

    @property
    def requested(self) -> float:
        """The value the controller last asked for: the allocation on a
        reliable link, the intent on :class:`repro.faults.UnreliableLink`
        (kept while in flight and after a give-up).  Policies that read
        their own allocation to decide read this."""
        return self._bandwidth

    @property
    def target(self) -> float:
        """The value the link is moving to: the in-flight request if one
        is pending, else the allocated bandwidth (an abandoned request is
        not a target)."""
        return self._bandwidth

    @property
    def change_count(self) -> int:
        """Number of genuine allocation changes so far."""
        return len(self.changes)

    def tick(self, t: int) -> None:
        """Advance link-internal state to slot ``t``.

        A no-op for a reliable link; unreliable links deliver due in-flight
        requests and send due retries here, and the engines call it once
        per slot before the policy acts.
        """

    def set(self, t: int, bandwidth: float) -> bool:
        """Set the allocation at slot ``t``; return True if it changed."""
        if bandwidth < 0:
            raise ConfigError(f"bandwidth must be >= 0, got {bandwidth!r}")
        if abs(bandwidth - self._bandwidth) <= CHANGE_EPSILON:
            return False
        self.changes.append(
            BandwidthChange(t=t, old=self._bandwidth, new=bandwidth)
        )
        self._bandwidth = float(bandwidth)
        return True

    def add(self, t: int, delta: float) -> bool:
        """Adjust the allocation by ``delta``; return True if it changed."""
        return self.set(t, self._bandwidth + delta)
