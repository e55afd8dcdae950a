"""Multiply-form stage envelope kernel: every stage decision runs on it.

Section 2's stage rule needs two per-slot facts about the stage so far:

* did ``low(t)`` cross the current allocation rung (climb the ladder)?
* did ``low(t)`` cross ``high(t)`` (end the stage)?

Figure 3 (:class:`~repro.core.single_session.SingleSessionOnline`),
Theorem 7 (:class:`~repro.core.modified_single.ModifiedSingleSessionOnline`),
the combined controller's global stages
(:class:`~repro.core.combined.CombinedMultiSession`), the stage certificate
(:func:`~repro.core.offline.stage_certificate`) and the event-sliced engine
(:mod:`repro.sim.vector`) all answer them here, so there is one
implementation of the stage tests.

Both are threshold tests against the max-slope envelope

    low(t) = max over r' <= r, u <= r' of  (C(r'+1) - C(u)) / (r'+D+1-u)

with ``C`` the stage-relative arrival prefix sums.  Rather than computing
the division-form maximum each slot, the kernel keeps the *multiply-form*
margin state for a fixed threshold ``theta``::

    viol(theta)  <=>  max_{r'} [ lhs(r') - min_{u <= r'} (C(u) - theta*u) ] > 0
    with  lhs(r') = C(r'+1) - theta*(r'+D+1)

which needs O(1) float work per slot per threshold: a running minimum
(``m``) of the ``C(u) - theta*u`` candidates and a running maximum (``v``)
of the per-slot margins.  When a threshold moves (the allocation climbs a
rung, or ``high`` drops to a new window minimum) the pair is recomputed
over the stage history with two numpy accumulates — an O(r) vector
operation that happens only at *events*, never per slot.

:meth:`StageKernel.scan` advances the kernel through the longest
event-free prefix of an arrival chunk using ``np.add.accumulate`` /
``np.minimum.accumulate`` / ``np.maximum.accumulate``, which are
bitwise-identical to the sequential scalar updates, so the scalar and
vector paths cannot disagree.

Exactness notes (why scalar and vector agree bit-for-bit):

* ``np.add.accumulate`` over ``[carry, a0, a1, ...]`` produces exactly the
  sequence of sequential ``+=`` results;
* ``np.minimum.accumulate`` / ``np.maximum.accumulate`` match sequential
  ``min``/``max`` folds (and both are evaluation-order independent);
* ``theta * np.arange(n)`` matches the per-slot ``theta * r`` products
  (integers below 2**53 convert exactly);
* all remaining per-slot work is elementwise subtraction, bitwise equal
  between scalar and vector evaluation.

The multiply form is exact whenever every product and difference is: with
integer arrivals and ``theta`` a dyadic rational (an integer rung, or
``high`` when ``U_O * W`` is a power of two) the tests equal the exact
rational comparisons ``low(t) > theta`` (``tests/core/test_exact_stage.py``
checks this against a :class:`fractions.Fraction` reference).
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.powers import Quantizer
from repro.errors import SimulationError

#: Margin value meaning "no slot processed yet at this threshold".
_NEG_INF = float("-inf")


class StageKernel:
    """Incremental multiply-form envelope state for one stage.

    ``high(t)`` is tracked as a running minimum float; ``low(t)`` is never
    materialized per slot, only the two threshold tests the decision rule
    actually needs (:meth:`current_low` computes it on demand).

    Args:
        offline_delay: ``D_O`` (slope denominators are ``r + D_O + 1 - u``).
        utilization: ``U_O`` (None disables the high bound).
        window: ``W`` — the utilization window.
        max_bandwidth: ``B_A`` — the value of ``high`` while the stage is
            younger than ``W`` slots.
    """

    __slots__ = (
        "delay",
        "utilization",
        "window",
        "max_bandwidth",
        "_uw",
        "_buf",
        "n",
        "_total",
        "_prev_total",
        "high",
        "_m_end",
        "_v_end",
        "theta_rung",
        "_m_rung",
        "_v_rung",
        "maxed",
    )

    def __init__(
        self,
        offline_delay: int,
        utilization: float | None,
        window: int | None,
        max_bandwidth: float,
    ):
        self.delay = int(offline_delay)
        self.utilization = utilization
        self.window = int(window) if window is not None else None
        self.max_bandwidth = float(max_bandwidth)
        # Precomputed once; identical float to the per-slot product
        # U_O * W (W converted exactly).
        self._uw = (
            self.utilization * self.window if utilization is not None else None
        )
        self._buf = np.zeros(256, dtype=np.float64)
        self.reset()

    # -- state management --------------------------------------------------

    def reset(self) -> None:
        """Start a new stage: empty prefix stream, ``high = B_A``."""
        self.n = 0
        self._buf[0] = 0.0
        self._total = 0.0
        self._prev_total = 0.0
        self.high = self.max_bandwidth
        self._m_end = 0.0
        self._v_end = _NEG_INF
        self.theta_rung = 0.0
        self._m_rung = 0.0
        self._v_rung = _NEG_INF
        self.maxed = False

    @property
    def slots_seen(self) -> int:
        """Slots consumed this stage."""
        return self.n

    @property
    def total(self) -> float:
        """Total arrivals this stage."""
        return self._total

    def _ensure(self, size: int) -> None:
        if size >= len(self._buf):
            grown = np.zeros(max(size + 1, 2 * len(self._buf)), dtype=np.float64)
            grown[: self.n + 1] = self._buf[: self.n + 1]
            self._buf = grown

    def _append(self, arrivals: float) -> None:
        self._ensure(self.n + 1)
        self._prev_total = self._total
        self._total = self._total + arrivals
        self._buf[self.n + 1] = self._total
        self.n += 1

    # -- high(t) -----------------------------------------------------------

    def _update_high(self) -> bool:
        """Advance the running-minimum ``high``; True when it dropped."""
        if self._uw is None:
            return False
        if self.n >= self.window:
            window_sum = self._total - float(self._buf[self.n - self.window])
            bound = window_sum / self._uw
            if bound < self.high:
                self.high = bound
                return True
        return False

    # -- multiply-form margin state ----------------------------------------

    def _incremental(
        self, theta: float, m: float, v: float
    ) -> tuple[float, float]:
        """One O(1) slot update of the (runmin, runmax-margin) pair."""
        r = self.n - 1
        cand = self._prev_total - theta * r
        if cand < m:
            m = cand
        lhs = self._total - theta * (r + self.delay + 1)
        margin = lhs - m
        if margin > v:
            v = margin
        return m, v

    def _recompute(self, theta: float) -> tuple[float, float]:
        """Full-history (runmin, runmax-margin) pair for a new ``theta``.

        Covers every step ``r' in [0, n-1]`` with the same elementwise
        operations the incremental path performs, so switching between the
        two never changes a float.  An empty stage has no step yet: the
        reset pair.
        """
        n = self.n
        if n == 0:
            return 0.0, _NEG_INF
        c = self._buf[: n + 1]
        u = np.arange(float(n))
        cmin = np.minimum.accumulate(c[:n] - theta * u)
        margin = (c[1:] - theta * (u + (self.delay + 1.0))) - cmin
        return float(cmin[-1]), float(margin.max())

    # -- the per-slot scalar protocol --------------------------------------

    def start(self, arrivals: float) -> float:
        """Open a stage with its first slot; return ``low(0)``.

        ``low(0)`` has a single candidate window, so the exact division
        ``C(1) / (D_O + 1)`` is available.  The slot is not end-tested:
        :meth:`advance` on a fresh kernel is the end-tested way in.
        """
        self.reset()
        self._append(arrivals)
        self._update_high()
        self._m_end, self._v_end = self._recompute(self.high)
        low0 = self._total / (self.delay + 1)
        return low0 if low0 > 0.0 else 0.0

    def set_rung(self, rung: float, headroom: float) -> bool:
        """Install the allocation rung; return True while it is violated.

        Violated means ``headroom * low(t) > rung`` somewhere in the stage
        history, i.e. the caller should keep climbing.  Rungs at or above
        ``B_A`` are capped: the allocation can never exceed ``B_A``, so the
        test is disabled until the next stage.  Allowed before the first
        slot, where nothing can be violated yet.
        """
        self.theta_rung = rung / headroom
        self.maxed = rung >= self.max_bandwidth
        if self.maxed:
            return False
        self._m_rung, self._v_rung = self._recompute(self.theta_rung)
        return self._v_rung > 0.0

    def advance(self, arrivals: float) -> tuple[bool, bool]:
        """Consume one slot; return ``(end_violated, rung_violated)``.

        ``end_violated`` — ``low(t) > high(t)``: the stage must end.
        ``rung_violated`` — ``headroom * low(t)`` crossed the current rung:
        the caller should climb via :meth:`set_rung`.  Mirrors the decision
        order of Figure 3: the end test wins.
        """
        self._append(arrivals)
        if self._update_high():
            self._m_end, self._v_end = self._recompute(self.high)
        else:
            self._m_end, self._v_end = self._incremental(
                self.high, self._m_end, self._v_end
            )
        if self._v_end > 0.0:
            return True, False
        if self.maxed:
            return False, False
        self._m_rung, self._v_rung = self._incremental(
            self.theta_rung, self._m_rung, self._v_rung
        )
        return False, self._v_rung > 0.0

    def climb(
        self, current: float, target: float, grid: Quantizer, headroom: float
    ) -> float:
        """Install the lowest rung that holds after ``current`` was violated.

        ``target`` is the caller's quantized exact ``low(t)`` (from
        :meth:`current_low`); when it is no higher than ``current`` the
        climb starts one ``grid`` rung above ``current``.  Rungs are then
        stepped while the multiply-form test still reports a violation —
        at most one extra rung in practice, bounded by the grid's
        ``levels()`` in all cases.  A rung at or above ``B_A`` ends the
        climb at ``B_A``.  Returns the installed rung.
        """
        g = target
        if g <= current:
            g = grid(math.nextafter(current, math.inf))
        for _ in range(grid.levels(self.max_bandwidth) + 64):
            if g >= self.max_bandwidth:
                self.set_rung(self.max_bandwidth, headroom)
                return self.max_bandwidth
            if not self.set_rung(g, headroom):
                return g
            g = grid(math.nextafter(g, math.inf))
        raise SimulationError(
            f"allocation ladder failed to converge; the quantizer grid ({grid!r}) "
            "is inconsistent with its levels() bound"
        )

    def walk(self, values) -> int:
        """:meth:`scan` by repeated :meth:`advance`, for short windows.

        Consumes ``values`` (Python floats) slot by slot and rolls the
        first event slot back, so state is committed for exactly the
        returned number of quiet slots, as :meth:`scan` commits it.  The
        rollback restores every field :meth:`advance` writes (the prefix
        buffer entry past ``n`` is rewritten by the next append), so it
        needs no arithmetic of its own.
        """
        quiet = 0
        for bits in values:
            saved = (
                self.n, self._total, self._prev_total, self.high,
                self._m_end, self._v_end, self._m_rung, self._v_rung,
            )
            end, rung = self.advance(bits)
            if end or rung:
                (
                    self.n, self._total, self._prev_total, self.high,
                    self._m_end, self._v_end, self._m_rung, self._v_rung,
                ) = saved
                return quiet
            quiet += 1
        return quiet

    # -- exact low(t) on demand (diagnostics) ------------------------------

    def current_low(self) -> float:
        """The exact envelope ``low(t)`` via Dinkelbach iteration.

        The per-slot protocol never materializes ``low``; diagnostics that
        want the float get it here.  Each iteration is one vectorized
        margin pass; the parametric maximum of finitely many linear
        fractions converges in a handful of iterations and terminates
        exactly (the final value is the division of an achieving pair).
        """
        n = self.n
        if n == 0:
            return 0.0
        c = self._buf[: n + 1]
        u = np.arange(float(n))
        den_off = self.delay + 1.0
        theta = 0.0
        for _ in range(64):
            base = c[:n] - theta * u
            cmin = np.minimum.accumulate(base)
            lhs = c[1:] - theta * (u + den_off)
            margin = lhs - cmin
            r = int(np.argmax(margin))
            if margin[r] <= 0.0:
                return theta
            # Achieving u for this r: the prefix-min position.
            j = int(np.argmin(base[: r + 1]))
            candidate = (float(c[r + 1]) - float(c[j])) / (r + self.delay + 1 - j)
            if candidate <= theta:
                return theta
            theta = candidate
        return theta

    # -- the vectorized fast-forward ---------------------------------------

    def scan(self, values: np.ndarray) -> int:
        """Advance through the longest event-free prefix of ``values``.

        An *event* is a slot whose end test or rung test fires — the slots
        the scalar decision rule would react to.  State is committed for
        exactly the returned number of slots; the caller feeds the first
        event slot (if any) through :meth:`advance` to react to it.

        Every committed float equals what repeated :meth:`advance` calls
        would have produced (see the module docstring for why).
        """
        m = len(values)
        if m == 0:
            return 0
        n0 = self.n
        self._ensure(n0 + m + 1)

        # Stage prefix sums across the chunk (carry-in: current total).
        cum = np.add.accumulate(np.concatenate(([self._total], values)))

        # high(t) series over the chunk: window sums are prefix diffs; the
        # first min(W, n0) left endpoints come from the committed buffer.
        w = self.window
        if self._uw is None:
            high_seq = np.full(m, self.high)
            change = np.zeros(m, dtype=bool)
        else:
            first_valid = max(1, w - n0)  # first i (1-based) with n0+i >= W
            bounds = np.full(m, np.inf)
            if first_valid <= m:
                lo = max(0, n0 + first_valid - w)
                ext = np.concatenate((self._buf[lo : n0 + 1], cum[1:]))
                # C(j) for j in [lo, n0+m]; index j-lo.
                right = ext[np.arange(n0 + first_valid, n0 + m + 1) - lo]
                left = ext[np.arange(n0 + first_valid - w, n0 + m + 1 - w) - lo]
                bounds[first_valid - 1 :] = (right - left) / self._uw
            high_seq = np.minimum.accumulate(
                np.concatenate(([self.high], bounds))
            )[1:]
            prev = np.concatenate(([self.high], high_seq[:-1]))
            change = high_seq != prev

        # Per-slot margin ingredients shared by both thresholds.
        idx = np.arange(float(n0), float(n0 + m))  # r for chunk slot i (0-based)
        cands_c = cum[:-1]  # C(r) for each chunk slot
        lhs_c = cum[1:]  # C(r+1)
        den = idx + (self.delay + 1.0)

        # Rung test: theta fixed across the chunk (a climb is an event).
        if self.maxed:
            rung_stop = m
            m_rung_seq = None
            v_rung_seq = None
        else:
            theta = self.theta_rung
            m_rung_seq = np.minimum.accumulate(
                np.concatenate(([self._m_rung], cands_c - theta * idx))
            )[1:]
            v_rung_seq = np.maximum.accumulate(
                np.concatenate(
                    ([self._v_rung], (lhs_c - theta * den) - m_rung_seq)
                )
            )[1:]
            viol = np.nonzero(v_rung_seq > 0.0)[0]
            rung_stop = int(viol[0]) if len(viol) else m

        # End test: theta follows high(t), constant between drops.  Each
        # drop replays the scalar full-history recompute (same O(r) numpy
        # pass the scalar path runs), then the segment continues with the
        # carried incremental accumulates.  Nothing past the first rung
        # violation is committed, so segments stop there.
        end_stop = m
        m_end_seq = np.empty(m)
        v_end_seq = np.empty(m)
        seg_starts = [0] + [int(i) for i in np.nonzero(change)[0]]
        seg_starts = sorted(set(seg_starts))
        m_carry, v_carry = self._m_end, self._v_end
        for si, start in enumerate(seg_starts):
            if start >= rung_stop:
                break
            stop = seg_starts[si + 1] if si + 1 < len(seg_starts) else m
            stop = min(stop, rung_stop)
            theta = float(high_seq[start])
            if change[start]:
                # Recompute at the drop slot: full history through this
                # slot, using the not-yet-committed chunk prefix.
                hist = np.concatenate(
                    (self._buf[: n0 + 1], cum[1 : start + 2])
                )
                nn = n0 + start + 1
                uu = np.arange(float(nn))
                cmin = np.minimum.accumulate(hist[:nn] - theta * uu)
                marg = (hist[1:] - theta * (uu + (self.delay + 1.0))) - cmin
                m_end_seq[start] = cmin[-1]
                v_end_seq[start] = marg.max()
                nxt = start + 1
            else:
                nxt = start
            if nxt > start:
                m_carry = float(m_end_seq[start])
                v_carry = float(v_end_seq[start])
            if nxt < stop:
                seg = slice(nxt, stop)
                m_seq = np.minimum.accumulate(
                    np.concatenate(
                        ([m_carry], cands_c[seg] - theta * idx[seg])
                    )
                )[1:]
                v_seq = np.maximum.accumulate(
                    np.concatenate(
                        ([v_carry], (lhs_c[seg] - theta * den[seg]) - m_seq)
                    )
                )[1:]
                m_end_seq[seg] = m_seq
                v_end_seq[seg] = v_seq
                m_carry = float(m_seq[-1])
                v_carry = float(v_seq[-1])
            viol = np.nonzero(v_end_seq[start:stop] > 0.0)[0]
            if len(viol):
                end_stop = start + int(viol[0])
                break

        quiet = min(rung_stop, end_stop, m)
        if quiet == 0:
            return 0

        # Commit exactly the quiet prefix.
        self._buf[n0 + 1 : n0 + quiet + 1] = cum[1 : quiet + 1]
        self.n = n0 + quiet
        self._total = float(cum[quiet])
        self._prev_total = float(cum[quiet - 1])
        self.high = float(high_seq[quiet - 1])
        self._m_end = float(m_end_seq[quiet - 1])
        self._v_end = float(v_end_seq[quiet - 1])
        if not self.maxed:
            self._m_rung = float(m_rung_seq[quiet - 1])
            self._v_rung = float(v_rung_seq[quiet - 1])
        return quiet
