"""Incremental lower convex hull with max-slope queries.

The single-session ``low(t)`` bound is

    low(t) = max over u in [ts, t] of  IN[u..t] / (t - u + 1 + D_O)

With ``C`` the cumulative-arrival prefix sum this is the maximum slope from
the query point ``(t + D_O, C(t))`` to the historical points
``(u - 1, C(u - 1))``, all strictly to its left.  The maximizing point always
lies on the *lower convex hull* of the history, and the slope along the hull
vertices is unimodal, so the query is a binary search.

Points arrive with strictly increasing x (one per time slot), which makes
hull maintenance a textbook monotone-chain append with amortized O(1) cost.
"""

from __future__ import annotations

from repro.errors import ConfigError


def _cross(ox: float, oy: float, ax: float, ay: float, bx: float, by: float) -> float:
    """Cross product (a - o) x (b - o)."""
    return (ax - ox) * (by - oy) - (ay - oy) * (bx - ox)


class MaxSlopeHull:
    """Lower convex hull over points with strictly increasing x.

    Supports :meth:`max_slope_from` queries from points strictly to the
    right of every inserted point.  Used by
    :class:`repro.core.envelope.LowTracker`; also directly property-tested
    against the naive quadratic maximum.
    """

    def __init__(self) -> None:
        self._xs: list[float] = []
        self._ys: list[float] = []

    def __len__(self) -> int:
        return len(self._xs)

    def clear(self) -> None:
        """Remove all points (start of a new stage)."""
        self._xs.clear()
        self._ys.clear()

    def add(self, x: float, y: float) -> None:
        """Insert a point; ``x`` must exceed every previously inserted x."""
        xs, ys = self._xs, self._ys
        if xs and x <= xs[-1]:
            raise ConfigError(
                f"x must be strictly increasing: got {x!r} after {xs[-1]!r}"
            )
        # Monotone-chain lower hull: drop middle points that are not strictly
        # below the segment joining their neighbours.
        while len(xs) >= 2 and _cross(xs[-2], ys[-2], xs[-1], ys[-1], x, y) <= 0:
            xs.pop()
            ys.pop()
        xs.append(x)
        ys.append(y)

    def max_slope_from(self, qx: float, qy: float) -> float:
        """Maximum of ``(qy - y) / (qx - x)`` over all inserted points.

        ``qx`` must be strictly greater than every inserted x.
        """
        xs, ys = self._xs, self._ys
        n = len(xs)
        if n == 0:
            raise ConfigError("no points in hull")
        if qx <= xs[-1]:
            raise ConfigError(
                f"query x must exceed all points: qx={qx!r}, last x={xs[-1]!r}"
            )
        if n == 1:
            return (qy - ys[0]) / (qx - xs[0])
        # The slope sequence f(v_0), f(v_1), ... along hull vertices rises
        # and then falls.  f(v_i) > f(v_{i+1}) iff the query point lies
        # strictly below the line through v_i and v_{i+1}; once true it
        # stays true, so binary-search for the first such edge.
        lo, hi = 0, n - 1  # invariant: answer vertex index in [lo, hi]
        while lo < hi:
            mid = (lo + hi) // 2
            # q strictly below line through v_mid, v_mid+1 ?
            below = _cross(
                xs[mid], ys[mid], xs[mid + 1], ys[mid + 1], qx, qy
            ) < 0
            if below:
                hi = mid
            else:
                lo = mid + 1
        return (qy - ys[lo]) / (qx - xs[lo])
