"""Adversarial workload search: find the worst case, don't just check it.

:mod:`repro.verify` certifies the paper's guarantees on *given* traces;
this package actively hunts for the workloads that make the online
algorithms pay.  Three layers:

* :mod:`repro.adversary.generators` — seeded, deterministic adversary
  families: (ρ, b)-leaky-bucket arrival processes (the adversarial-
  queuing injection model), threshold-straddling oscillators that flip
  demand right around the Figure 3 algorithm's power-of-two level
  boundaries, and phase-resonant multi-session adversaries timed to the
  phased algorithm's ``D_O``-slot phase grid.  Every candidate carries a
  *witness* offline schedule, so measured ratios are certified lower
  bounds on the competitive ratio, not estimates.
* :mod:`repro.adversary.search` — scoring against the OPT bracket
  (DP oracle + stage certificates below, witness profile above) and a
  deterministic hill-climbing loop over arrival sequences with
  content-cached re-scoring, journal-based resume, and live progress.
* :mod:`repro.adversary.campaign` / :mod:`repro.adversary.corpus` —
  attack campaigns per algorithm emitting a ranked corpus of worst-case
  traces plus an empirical *tightness report* for Theorems 6/7/14/17 and
  the Remark §1.1 no-slack divergence.

See docs/ADVERSARY.md for the adversary model and the report schema.
"""

from repro.adversary.campaign import (
    CampaignConfig,
    CampaignResult,
    NoSlackSeries,
    TightnessEntry,
    TightnessReport,
    no_slack_divergence,
    run_campaign,
    tightness_bound,
)
from repro.adversary.corpus import (
    CorpusEntry,
    load_corpus,
    load_corpus_entry,
    replay_entry,
    save_corpus,
    save_corpus_entry,
)
from repro.adversary.generators import (
    AttackCandidate,
    constant_witness,
    doubling_attack,
    leaky_bucket_attack,
    leaky_bucket_multi_attack,
    phase_resonant_attack,
    sawtooth_attack,
    threshold_oscillator_attack,
)
from repro.adversary.mutators import mutate_multi, mutate_single
from repro.adversary.search import (
    AttackScore,
    SearchResult,
    hill_climb,
    score_multi,
    score_single,
)

__all__ = [
    "AttackCandidate",
    "AttackScore",
    "CampaignConfig",
    "CampaignResult",
    "CorpusEntry",
    "NoSlackSeries",
    "SearchResult",
    "TightnessEntry",
    "TightnessReport",
    "constant_witness",
    "doubling_attack",
    "hill_climb",
    "leaky_bucket_attack",
    "leaky_bucket_multi_attack",
    "load_corpus",
    "load_corpus_entry",
    "mutate_multi",
    "mutate_single",
    "no_slack_divergence",
    "phase_resonant_attack",
    "replay_entry",
    "run_campaign",
    "save_corpus",
    "save_corpus_entry",
    "sawtooth_attack",
    "score_multi",
    "score_single",
    "threshold_oscillator_attack",
    "tightness_bound",
]
