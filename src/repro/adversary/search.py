"""Candidate scoring and deterministic hill-climbing over attack traces.

Scoring is certified: every :class:`AttackScore` carries the OPT bracket
(stage certificates and the DP oracle below, the candidate's witness
schedule above) and the ratio reported is ``online / max(1, opt_upper)``
— a *lower* bound on the realized competitive ratio, never an estimate
(:mod:`repro.analysis.competitive` conventions).  Candidates without a
witness score 0 so the search cannot reward uncertifiable noise.

The hill-climb is deterministic and resumable:

* iteration ``i`` draws all randomness from
  ``np.random.default_rng([seed, i])`` — the candidate at ``i`` depends
  only on ``seed`` and the recorded scores before it;
* with a :class:`~repro.runner.resilience.SweepJournal`, each score is
  recorded under ``iter-{i}`` keyed by the candidate digest, so a resumed
  run regenerates candidates (cheap) and replays scores (free) until it
  reaches the first unscored iteration;
* with a :class:`~repro.runner.cache.ContentCache` configured
  (``REPRO_CACHE_DIR``), re-scoring an already-seen trace is a JSON
  lookup even across journals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.adversary.differential import (
    certified_attack_run,
    certified_multi_run,
    default_policy,
)
from repro.adversary.generators import AttackCandidate
from repro.analysis.competitive import bracket
from repro.core.offline import stage_lower_bound
from repro.core.offline_multi import multi_stage_lower_bound
from repro.errors import ConfigError
from repro.obs.runtime import get_telemetry
from repro.params import OfflineConstraints
from repro.runner.cache import get_cache
from repro.verify.oracle import RATIO_NO_STATEMENT, classify_ratio

#: Every this-many-th hill-climb mutation starts from a random seed
#: family instead of the incumbent.
RESTART_EVERY = 7


@dataclass(frozen=True)
class AttackScore:
    """Certified outcome of one candidate evaluation.

    Attributes:
        ratio: ``online / max(1, opt_upper)`` when certified, else 0 —
            a lower bound on the realized competitive ratio.
        online_changes: total online allocation changes.
        opt_lower: certificate lower bound on offline changes.
        opt_upper: witness upper bound, or ``None`` (uncertified).
        verdict_kind: :func:`repro.verify.oracle.classify_ratio` kind of
            the online count against the best zero-knowledge offline
            (the DP oracle for single sessions, the witness for multi).
        certified: witness present *and* the certificate report passed.
        max_stage_changes: largest per-stage online change count — the
            quantity the per-stage theorems (6/7/14/17) bound.
        stages: completed envelope stages during the run.
    """

    ratio: float
    online_changes: int
    opt_lower: int
    opt_upper: int | None
    verdict_kind: str
    certified: bool
    max_stage_changes: int
    stages: int

    @property
    def unbounded(self) -> bool:
        return self.verdict_kind == "unbounded"

    def as_dict(self) -> dict:
        return {
            "ratio": self.ratio,
            "online_changes": self.online_changes,
            "opt_lower": self.opt_lower,
            "opt_upper": self.opt_upper,
            "verdict_kind": self.verdict_kind,
            "certified": self.certified,
            "max_stage_changes": self.max_stage_changes,
            "stages": self.stages,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "AttackScore":
        return cls(**payload)

    def key(self) -> tuple:
        """Total order used by the search: unbounded first, then ratio."""
        return (
            1 if (self.unbounded and self.certified) else 0,
            self.ratio,
            self.online_changes,
        )


def _cached_score(section_key: dict, compute):
    """Route a score through the content cache when one is configured."""
    cache = get_cache()
    if cache is None:
        return compute()
    key = cache.key("attack-score", section_key)
    hit = cache.load_json("adversary", key)
    if hit is not None:
        return AttackScore.from_dict(hit)
    score = compute()
    cache.store_json("adversary", key, score.as_dict())
    return score


def score_single(
    candidate: AttackCandidate,
    offline: OfflineConstraints,
    *,
    use_cache: bool = True,
) -> AttackScore:
    """Evaluate a single-session candidate against Figure 3.

    The OPT bracket: ``opt_lower`` is the larger of the Lemma 1 stage
    certificate (when a utilization constraint exists) and the DP oracle;
    ``opt_upper`` is the witness schedule's switch count — or, when the
    offline side is delay-only, the oracle's own witness (which is then a
    genuinely feasible offline schedule).
    """

    def compute() -> AttackScore:
        policy = default_policy(offline)
        trace, report, verdict = certified_attack_run(
            candidate.arrivals,
            offline,
            profile=candidate.profile,
            policy=policy,
        )
        online = trace.change_count
        opt_upper = candidate.profile_changes
        if opt_upper is None and offline.utilization is None:
            # Delay-only offline: the oracle witness is itself feasible.
            opt_upper = verdict.opt_changes
        lower = verdict.opt_changes if verdict.opt_changes is not None else 0
        if offline.utilization is not None:
            lower = max(lower, stage_lower_bound(candidate.arrivals, offline))
        certified = opt_upper is not None and report.certified
        if certified:
            lower = min(lower, opt_upper)  # witness may beat a loose certificate
            ratio = bracket(online, lower, opt_upper).ratio_vs_upper
        else:
            ratio = 0.0
        kind = (
            classify_ratio(online, opt_upper).kind
            if opt_upper is not None
            else verdict.kind
        )
        return AttackScore(
            ratio=ratio,
            online_changes=online,
            opt_lower=lower,
            opt_upper=opt_upper,
            verdict_kind=kind,
            certified=certified,
            max_stage_changes=policy.max_changes_per_stage,
            stages=trace.completed_stages,
        )

    if not use_cache:
        return compute()
    return _cached_score(
        {
            "kind": "single",
            "digest": candidate.digest,
            "witness": candidate.profile_changes,
            "bandwidth": offline.bandwidth,
            "delay": offline.delay,
            "utilization": offline.utilization,
            "window": offline.window,
        },
        compute,
    )


def _multi_max_stage_changes(trace) -> int:
    """Largest per-stage change count of a multi-session trace."""
    starts = list(trace.stage_starts) or [0]
    bounds = starts + [trace.horizon + 1]
    times = [change.t for _, _, change in trace.local_changes]
    times += [change.t for change in trace.extra_changes]
    best = 0
    for s, e in zip(bounds[:-1], bounds[1:]):
        best = max(best, sum(1 for t in times if s <= t < e))
    return best


def score_multi(
    candidate: AttackCandidate,
    offline_bandwidth: float,
    offline_delay: int,
    *,
    engine: str = "phased",
    fifo: bool = False,
    use_cache: bool = True,
) -> AttackScore:
    """Evaluate a multi-session candidate against the §3 algorithms.

    The offline side is delay-only (the §3 model), so the bracket is the
    Lemma 13 stage certificate below and the witness profiles above.
    There is no multi-session DP oracle; the verdict classifies the
    online count directly against the witness (``opt_upper == 0`` with
    online changes is still a sound unbounded signature — the witness
    *is* a feasible zero-change offline).
    """
    if candidate.arrivals.ndim != 2:
        raise ConfigError(
            f"score_multi needs (T, k) arrivals, got shape "
            f"{candidate.arrivals.shape}"
        )

    def compute() -> AttackScore:
        trace, report = certified_multi_run(
            candidate.arrivals,
            offline_bandwidth,
            offline_delay,
            engine=engine,
            fifo=fifo,
            feasible=candidate.profile is not None,
            label=f"attack {engine}",
        )
        online = trace.change_count
        opt_upper = candidate.profile_changes
        lower = multi_stage_lower_bound(
            candidate.arrivals, offline_bandwidth, offline_delay
        )
        certified = opt_upper is not None and report.certified
        if certified:
            lower = min(lower, opt_upper)
            ratio = bracket(online, lower, opt_upper).ratio_vs_upper
        else:
            ratio = 0.0
        kind = (
            classify_ratio(online, opt_upper).kind
            if opt_upper is not None
            else RATIO_NO_STATEMENT
        )
        return AttackScore(
            ratio=ratio,
            online_changes=online,
            opt_lower=lower,
            opt_upper=opt_upper,
            verdict_kind=kind,
            certified=certified,
            max_stage_changes=_multi_max_stage_changes(trace),
            stages=trace.completed_stages,
        )

    if not use_cache:
        return compute()
    return _cached_score(
        {
            "kind": "multi",
            "digest": candidate.digest,
            "witness": candidate.profile_changes,
            "bandwidth": offline_bandwidth,
            "delay": offline_delay,
            "engine": engine,
            "fifo": fifo,
        },
        compute,
    )


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one :func:`hill_climb` run."""

    best: AttackCandidate
    best_score: AttackScore
    top: tuple[tuple[AttackCandidate, "AttackScore"], ...]
    evaluations: int
    cached_hits: int
    history: tuple[dict, ...]

    def as_dict(self) -> dict:
        return {
            "best": {
                "family": self.best.family,
                "digest": self.best.digest,
                "params": self.best.params,
            },
            "best_score": self.best_score.as_dict(),
            "evaluations": self.evaluations,
            "cached_hits": self.cached_hits,
            "history": list(self.history),
        }


def _insert_top(
    top: list[tuple[AttackCandidate, AttackScore]],
    candidate: AttackCandidate,
    score: AttackScore,
    keep: int,
    family_cap: int = 2,
) -> None:
    """Maintain the ranked leaderboard.

    Deduped by trace digest and capped per family — the winning family's
    near-duplicate mutants would otherwise flood out every other attack,
    leaving the corpus with nothing to regression-test the rest against.
    """
    for i, (held, held_score) in enumerate(top):
        if held.digest == candidate.digest:
            if score.key() > held_score.key():
                top[i] = (candidate, score)
            break
    else:
        top.append((candidate, score))
    top.sort(key=lambda pair: pair[1].key(), reverse=True)
    kept: list[tuple[AttackCandidate, AttackScore]] = []
    counts: dict[str, int] = {}
    for pair in top:
        family = pair[0].family
        if counts.get(family, 0) < family_cap:
            kept.append(pair)
            counts[family] = counts.get(family, 0) + 1
        if len(kept) >= keep:
            break
    top[:] = kept


def hill_climb(
    initial: list[AttackCandidate],
    score_fn,
    mutate_fn,
    *,
    budget: int,
    seed: int = 0,
    journal=None,
    tracker=None,
    keep_top: int = 8,
) -> SearchResult:
    """Deterministic best-first search over attack candidates.

    ``budget`` counts total evaluations (seeds included); iteration
    ``i``'s randomness comes from ``default_rng([seed, i])`` and its
    parent is the best-scoring candidate so far, so the whole trajectory
    is a pure function of ``(initial, seed, budget)``.  Every
    ``RESTART_EVERY``-th mutation restarts from a random seed family
    instead of the incumbent, which keeps one lucky family from starving
    the rest.  ``journal`` (a ``SweepJournal``) makes the run resumable;
    ``tracker`` (a ``ProgressTracker``) gets one ``job_done`` per
    evaluation.
    """
    if budget < 1:
        raise ConfigError(f"budget must be >= 1, got {budget!r}")
    if not initial:
        raise ConfigError("hill_climb needs at least one initial candidate")

    top: list[tuple[AttackCandidate, AttackScore]] = []
    history: list[dict] = []
    cached_hits = 0
    evaluations = 0

    def evaluate(key: str, candidate: AttackCandidate) -> AttackScore:
        nonlocal cached_hits, evaluations
        evaluations += 1
        replayed = False
        if journal is not None and key in journal:
            payload = journal.get(key)
            if payload.get("digest") == candidate.digest:
                score = AttackScore.from_dict(payload["score"])
                replayed = True
        if not replayed:
            score = score_fn(candidate)
            if journal is not None:
                journal.record(
                    key,
                    {
                        "digest": candidate.digest,
                        "family": candidate.family,
                        "score": score.as_dict(),
                    },
                )
        if replayed:
            cached_hits += 1
        _insert_top(top, candidate, score, keep_top)
        history.append(
            {
                "key": key,
                "family": candidate.family,
                "digest": candidate.digest,
                "ratio": score.ratio,
                "kind": score.verdict_kind,
                "best_ratio": top[0][1].ratio,
            }
        )
        # Per-iteration progress for the live observatory (`--serve`):
        # strictly observational, the search trajectory never reads it.
        tele = get_telemetry()
        if tele.enabled:
            registry = tele.registry
            registry.counter("adversary.evaluations").inc()
            if replayed:
                registry.counter("adversary.replayed").inc()
            registry.gauge("adversary.last_ratio").set(score.ratio)
            registry.gauge("adversary.best_ratio").set(top[0][1].ratio)
        if tracker is not None:
            tracker.job_done(
                f"{key} {candidate.family} ratio={score.ratio:.2f} "
                f"best={top[0][1].ratio:.2f}",
                slots=float(candidate.horizon),
                cached=replayed,
            )
        return score

    for i, candidate in enumerate(initial[:budget]):
        evaluate(f"seed-{i}", candidate)

    for i in range(max(0, budget - len(initial))):
        rng = np.random.default_rng([seed, i])
        if (i + 1) % RESTART_EVERY == 0:
            parent = initial[int(rng.integers(0, len(initial)))]
        else:
            parent = top[0][0]
        child = mutate_fn(parent, rng)
        evaluate(f"iter-{i}", child)

    best, best_score = top[0]
    return SearchResult(
        best=best,
        best_score=best_score,
        top=tuple(top),
        evaluations=evaluations,
        cached_hits=cached_hits,
        history=tuple(history),
    )
