"""Seeded, deterministic fault schedules.

A :class:`FaultPlan` is a composition of fault *primitives*, each affecting
one of four channels the simulation exposes:

* **link capacity** — :class:`LinkDegradation` windows multiply the
  effective serving bandwidth (the allocation is granted but the wire
  delivers less);
* **signaling loss** — :class:`SignalLoss` (i.i.d. per request) and
  :class:`SignalOutage` (deterministic windows where every request fails)
  drop allocation-change requests;
* **signaling delay** — :class:`SignalDelay` applies a request ``d`` slots
  after it was issued;
* **ingress loss** — :class:`IngressDrop` removes a fraction of a slot's
  arriving bits before they reach the queue.

Determinism is the design center: every random draw is a pure function of
``(seed, stream, lane, slot)`` via a counter-keyed generator, never of call
order or process state, so two runs over the same plan are bit-identical —
across processes too (no reliance on ``hash()``).  A plan with no events is
exactly the fault-free simulation (every factor is ``1.0``/``0``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError

#: Slots covered by one cached block of random draws.
_BLOCK = 512


class SeededStream:
    """Order-independent uniform draws keyed by ``(seed, stream, lane, t)``.

    ``uniform(t, lane)`` depends only on the key, so any query order yields
    the same values.  Draws are generated in blocks of :data:`_BLOCK` slots
    to amortize generator construction.
    """

    def __init__(self, seed: int, stream: int):
        self.seed = int(seed)
        self.stream = int(stream)
        self._blocks: dict[tuple[int, int], np.ndarray] = {}

    def uniform(self, t: int, lane: int = 0) -> float:
        if t < 0:
            raise ConfigError(f"slot must be >= 0, got {t!r}")
        block, offset = divmod(int(t), _BLOCK)
        key = (block, int(lane))
        cached = self._blocks.get(key)
        if cached is None:
            rng = np.random.default_rng(
                (self.seed, self.stream, int(lane), block)
            )
            cached = rng.random(_BLOCK)
            self._blocks[key] = cached
        return float(cached[offset])

    def uniforms(self, start: int, stop: int, lane: int = 0) -> np.ndarray:
        """:meth:`uniform` for every slot of ``[start, stop)``, as one array."""
        if start < 0:
            raise ConfigError(f"slot must be >= 0, got {start!r}")
        if stop <= start:
            return np.empty(0)
        first = start // _BLOCK
        blocks = []
        for block in range(first, (stop - 1) // _BLOCK + 1):
            self.uniform(block * _BLOCK, lane)  # fills the block cache
            blocks.append(self._blocks[(block, int(lane))])
        offset = first * _BLOCK
        return np.concatenate(blocks)[start - offset : stop - offset]


def _check_probability(name: str, p: float) -> float:
    if not 0.0 <= p <= 1.0:
        raise ConfigError(f"{name} must be in [0, 1], got {p!r}")
    return float(p)


def _check_window(t0: int, t1: int) -> tuple[int, int]:
    if t0 < 0 or t1 <= t0:
        raise ConfigError(f"need 0 <= t0 < t1, got t0={t0!r}, t1={t1!r}")
    return int(t0), int(t1)


@dataclass(frozen=True)
class LinkDegradation:
    """Effective capacity is multiplied by ``factor`` during ``[t0, t1)``."""

    t0: int
    t1: int
    factor: float

    def __post_init__(self) -> None:
        _check_window(self.t0, self.t1)
        if not 0.0 <= self.factor <= 1.0:
            raise ConfigError(
                f"degradation factor must be in [0, 1], got {self.factor!r}"
            )

    def active(self, t: int) -> bool:
        return self.t0 <= t < self.t1


@dataclass(frozen=True)
class SignalLoss:
    """Each allocation-change request is dropped with probability ``p``.

    ``seed`` overrides the plan seed for this primitive's draws.
    """

    p: float
    seed: int | None = None

    def __post_init__(self) -> None:
        _check_probability("SignalLoss.p", self.p)


@dataclass(frozen=True)
class SignalOutage:
    """Every request issued during ``[t0, t1)`` is dropped."""

    t0: int
    t1: int

    def __post_init__(self) -> None:
        _check_window(self.t0, self.t1)

    def active(self, t: int) -> bool:
        return self.t0 <= t < self.t1


@dataclass(frozen=True)
class SignalDelay:
    """With probability ``p`` a surviving request is applied ``delay`` late."""

    delay: int
    p: float = 1.0
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.delay < 1:
            raise ConfigError(f"delay must be >= 1 slot, got {self.delay!r}")
        _check_probability("SignalDelay.p", self.p)


@dataclass(frozen=True)
class IngressDrop:
    """With probability ``p`` a slot loses ``fraction`` of its arrivals."""

    p: float
    fraction: float = 1.0
    seed: int | None = None

    def __post_init__(self) -> None:
        _check_probability("IngressDrop.p", self.p)
        if not 0.0 < self.fraction <= 1.0:
            raise ConfigError(
                f"drop fraction must be in (0, 1], got {self.fraction!r}"
            )


FaultEvent = (
    LinkDegradation | SignalLoss | SignalOutage | SignalDelay | IngressDrop
)


class FaultPlan:
    """A deterministic, composable schedule of fault events.

    Args:
        events: fault primitives; the order only fixes each primitive's
            random stream, it has no temporal meaning.
        seed: master seed; primitives with their own ``seed`` use it instead.

    The query API is what the engine and the signaling plane consume:

    * :meth:`capacity_factor` — product of active degradations at ``t``;
    * :meth:`ingress_factor` — surviving fraction of slot-``t`` arrivals;
    * :meth:`drop_request` — does the request issued at ``t`` on signaling
      channel ``channel`` (attempt ``attempt``) get lost?
    * :meth:`request_delay` — slots until a surviving request applies.
    """

    def __init__(self, events: tuple[FaultEvent, ...] | list = (), seed: int = 0):
        self.events: tuple[FaultEvent, ...] = tuple(events)
        self.seed = int(seed)
        self._degradations: list[LinkDegradation] = []
        self._outages: list[SignalOutage] = []
        self._losses: list[tuple[SignalLoss, SeededStream]] = []
        self._delays: list[tuple[SignalDelay, SeededStream]] = []
        self._drops: list[tuple[IngressDrop, SeededStream]] = []
        for stream_index, event in enumerate(self.events):
            if isinstance(event, LinkDegradation):
                self._degradations.append(event)
            elif isinstance(event, SignalOutage):
                self._outages.append(event)
            elif isinstance(event, SignalLoss):
                self._losses.append((event, self._stream(event, stream_index)))
            elif isinstance(event, SignalDelay):
                self._delays.append((event, self._stream(event, stream_index)))
            elif isinstance(event, IngressDrop):
                self._drops.append((event, self._stream(event, stream_index)))
            else:
                raise ConfigError(
                    f"unknown fault primitive {type(event).__name__!r}"
                )

    def _stream(self, event, stream_index: int) -> SeededStream:
        seed = self.seed if event.seed is None else int(event.seed)
        return SeededStream(seed, stream_index)

    def __repr__(self) -> str:
        return f"FaultPlan(events={len(self.events)}, seed={self.seed})"

    @property
    def is_null(self) -> bool:
        """True when the plan injects nothing (the fault-free simulation)."""
        return not self.events

    # -- queries -----------------------------------------------------------

    def capacity_factor(self, t: int) -> float:
        """Multiplier on effective serving bandwidth at slot ``t``."""
        factor = 1.0
        for event in self._degradations:
            if event.active(t):
                factor *= event.factor
        return factor

    def ingress_factor(self, t: int) -> float:
        """Fraction of slot-``t`` arrivals that survive ingress faults."""
        keep = 1.0
        for event, stream in self._drops:
            if stream.uniform(t) < event.p:
                keep *= 1.0 - event.fraction
        return keep

    def capacity_factors(self, start: int, stop: int) -> np.ndarray:
        """:meth:`capacity_factor` for every slot of ``[start, stop)``.

        Multiplies the active factors in event order, so every value is
        bit-identical to the per-slot query.
        """
        factors = np.ones(max(0, stop - start))
        for event in self._degradations:
            lo, hi = max(event.t0, start), min(event.t1, stop)
            if lo < hi:
                factors[lo - start : hi - start] *= event.factor
        return factors

    def ingress_factors(self, start: int, stop: int) -> np.ndarray:
        """:meth:`ingress_factor` for every slot of ``[start, stop)``."""
        keep = np.ones(max(0, stop - start))
        for event, stream in self._drops:
            hit = stream.uniforms(start, stop) < event.p
            keep[hit] *= 1.0 - event.fraction
        return keep

    def drop_request(self, t: int, channel: int = 0, attempt: int = 0) -> bool:
        """Is a request on ``channel`` at slot ``t`` (retry ``attempt``) lost?"""
        for event in self._outages:
            if event.active(t):
                return True
        lane = _lane(channel, attempt)
        for event, stream in self._losses:
            if stream.uniform(t, lane) < event.p:
                return True
        return False

    def request_delay(self, t: int, channel: int = 0) -> int:
        """Application delay (slots) for a surviving request at slot ``t``."""
        delay = 0
        lane = _lane(channel, 0)
        for event, stream in self._delays:
            if event.p >= 1.0 or stream.uniform(t, lane) < event.p:
                if event.delay > delay:
                    delay = event.delay
        return delay

    def jitter(self, t: int, channel: int, attempt: int) -> float:
        """Uniform draw in [0, 1) for retry-backoff jitter (deterministic)."""
        stream = SeededStream(self.seed, len(self.events) + 1)
        return stream.uniform(t, _lane(channel, attempt))

    # -- diagnostics -------------------------------------------------------

    def fingerprint(self, horizon: int, channels: int = 4) -> np.ndarray:
        """Dense sample of every fault channel over ``[0, horizon)``.

        Used by the determinism tests: two plans built from the same events
        and seed must produce bit-identical fingerprints.
        """
        rows = []
        for t in range(int(horizon)):
            row = [self.capacity_factor(t), self.ingress_factor(t)]
            for channel in range(channels):
                row.append(1.0 if self.drop_request(t, channel) else 0.0)
                row.append(float(self.request_delay(t, channel)))
            rows.append(row)
        return np.asarray(rows, dtype=float)


def _lane(channel: int, attempt: int) -> int:
    """Mix a signaling channel id and retry attempt into one stream lane."""
    if channel < 0 or attempt < 0:
        raise ConfigError(
            f"channel/attempt must be >= 0, got {channel!r}/{attempt!r}"
        )
    if attempt >= 256:
        raise ConfigError(f"attempt must be < 256, got {attempt!r}")
    return (int(channel) << 8) | int(attempt)


def standard_plan(
    intensity: float,
    horizon: int,
    seed: int = 0,
    episodes: int | None = None,
) -> FaultPlan:
    """The E-FAULT fault family, parameterized by one intensity knob.

    ``intensity`` in ``[0, 1]`` scales all four fault channels together:

    * ``intensity == 0`` → an empty (null) plan — the fault-free run;
    * higher intensity → deeper/longer degradation episodes, likelier
      signal loss, longer signaling delay, likelier ingress drops, plus one
      hard signaling outage window.

    Episode placement is drawn from a generator seeded by ``(seed,
    horizon)`` only, so the same ``(intensity, horizon, seed)`` always
    yields the same plan.
    """
    if not 0.0 <= intensity <= 1.0:
        raise ConfigError(f"intensity must be in [0, 1], got {intensity!r}")
    if horizon < 1:
        raise ConfigError(f"horizon must be >= 1, got {horizon!r}")
    if intensity == 0.0:
        return FaultPlan((), seed=seed)
    count = episodes if episodes is not None else max(1, int(3 * intensity))
    rng = np.random.default_rng((int(seed), int(horizon), 9173))
    events: list[FaultEvent] = []
    span = max(2, horizon // (2 * count + 1))
    for _ in range(count):
        t0 = int(rng.integers(0, max(1, horizon - span)))
        length = int(rng.integers(max(1, span // 2), span + 1))
        factor = float(max(0.0, 1.0 - intensity * (0.4 + 0.5 * rng.random())))
        events.append(LinkDegradation(t0, t0 + length, factor))
    outage_start = int(rng.integers(0, max(1, horizon // 2)))
    outage_len = max(1, int(round(0.02 * intensity * horizon)))
    events.append(SignalOutage(outage_start, outage_start + outage_len))
    events.append(SignalLoss(p=0.4 * intensity))
    events.append(
        SignalDelay(delay=max(1, int(round(4 * intensity))), p=0.5 * intensity)
    )
    events.append(IngressDrop(p=0.1 * intensity, fraction=0.5))
    return FaultPlan(tuple(events), seed=seed)
