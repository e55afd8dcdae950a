"""The ``attack`` subcommand: adversarial search against one algorithm.

``repro attack --algorithm single --budget 32 --seed 0 --out out/attack``
runs a deterministic attack campaign (same seed + budget → same best
trace and ratio), writes the ranked worst-case corpus as ``.npz`` fixture
files plus a JSON tightness report, and prints the report.  ``--resume``
replays scores from the journal in the output directory, so an
interrupted campaign continues where it stopped; ``--corpus DIR``
replays an existing corpus instead of searching, exiting non-zero when a
pinned entry no longer reproduces its recorded score (the regression
mode the ``attack-smoke`` CI job runs).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.adversary.campaign import ALGORITHMS, CampaignConfig, run_campaign
from repro.adversary.corpus import load_corpus, replay_entry, save_corpus
from repro.obs.live import serve_session
from repro.obs.progress import PROGRESS_MODES, ProgressTracker, progress_sink
from repro.runner.resilience import SweepJournal


def add_attack_parser(sub: argparse._SubParsersAction) -> None:
    """Register the ``attack`` subcommand."""
    parser = sub.add_parser(
        "attack",
        help="search for worst-case workloads and report theorem tightness",
    )
    parser.add_argument(
        "--algorithm",
        choices=ALGORITHMS,
        default="single",
        help="online algorithm under attack (default single)",
    )
    parser.add_argument(
        "--budget",
        type=int,
        default=24,
        help="total candidate evaluations (default 24)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--bandwidth", type=float, default=64.0, help="offline B_O (default 64)"
    )
    parser.add_argument(
        "--delay", type=int, default=4, help="offline D_O (default 4)"
    )
    parser.add_argument(
        "--utilization",
        type=float,
        default=0.25,
        help="offline U_O, single-session only (default 0.25)",
    )
    parser.add_argument(
        "--window", type=int, default=8, help="utilization window (default 8)"
    )
    parser.add_argument(
        "--sessions",
        type=int,
        default=4,
        metavar="K",
        help="session count for multi-session algorithms (default 4)",
    )
    parser.add_argument(
        "--top", type=int, default=5, help="corpus entries to keep (default 5)"
    )
    parser.add_argument(
        "--out",
        type=str,
        default=None,
        metavar="DIR",
        help="write corpus .npz files + tightness.json under DIR",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="replay recorded scores from DIR/journal.jsonl (needs --out)",
    )
    parser.add_argument(
        "--corpus",
        type=str,
        default=None,
        metavar="DIR",
        help="skip the search: replay a pinned corpus and fail on any "
        "entry whose recorded score no longer reproduces",
    )
    parser.add_argument(
        "--progress",
        choices=PROGRESS_MODES,
        default="auto",
        help="live search progress on stderr (default auto)",
    )
    parser.add_argument(
        "--json",
        type=str,
        default=None,
        metavar="PATH",
        help="also write the full campaign result as JSON",
    )
    parser.add_argument(
        "--serve",
        type=str,
        default=None,
        metavar="[HOST:]PORT",
        help="expose live telemetry over HTTP while the campaign runs "
        "(0 = ephemeral port, URL printed to stderr; attach with "
        "'repro watch')",
    )


def _replay_corpus(directory: str) -> int:
    entries = load_corpus(directory)
    if not entries:
        print(f"no corpus entries under {directory}", file=sys.stderr)
        return 1
    failures = 0
    for entry in entries:
        fresh, reproduced = replay_entry(entry)
        status = "ok" if reproduced else "REGRESSION"
        print(
            f"{status:10s} {entry.name}: recorded ratio "
            f"{entry.score.ratio:.3f} ({entry.score.verdict_kind}), "
            f"replayed {fresh.ratio:.3f} ({fresh.verdict_kind})"
        )
        if not reproduced:
            failures += 1
    print(f"{len(entries) - failures}/{len(entries)} entries reproduced")
    return 1 if failures else 0


def run_attack(args) -> int:
    if args.corpus is not None:
        return _replay_corpus(args.corpus)

    config = CampaignConfig(
        algorithm=args.algorithm,
        budget=args.budget,
        seed=args.seed,
        bandwidth=args.bandwidth,
        delay=args.delay,
        utilization=args.utilization,
        window=args.window,
        k=args.sessions,
        top_n=args.top,
    )
    out = Path(args.out) if args.out else None
    if args.resume and out is None:
        print("--resume needs --out (the journal lives there)", file=sys.stderr)
        return 2

    journal = None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        if args.resume or not (out / "journal.jsonl").exists():
            journal = SweepJournal(out / "journal.jsonl")

    sink = progress_sink(args.progress)
    try:
        with serve_session(getattr(args, "serve", None), label="attack") as obs:
            if obs is not None:
                sink = obs.progress_tee(sink)
            tracker = (
                ProgressTracker(config.budget, sink)
                if sink is not None
                else None
            )
            try:
                if tracker is not None:
                    tracker.start()
                result = run_campaign(config, journal=journal, tracker=tracker)
            finally:
                if tracker is not None:
                    tracker.finish()
    finally:
        if journal is not None:
            journal.close()

    print(result.tightness.render())
    best = result.best_score
    print(
        f"best: {result.search.best.family} ratio={best.ratio:.3f} "
        f"({best.verdict_kind}) after {result.search.evaluations} "
        f"evaluations ({result.search.cached_hits} replayed)"
    )
    if out is not None:
        paths = save_corpus(list(result.corpus), out)
        (out / "tightness.json").write_text(
            json.dumps(result.tightness.as_dict(), indent=2, sort_keys=True)
        )
        print(f"wrote {len(paths)} corpus entries + tightness.json to {out}")
    if args.json is not None:
        Path(args.json).write_text(
            json.dumps(result.as_dict(), indent=2, sort_keys=True)
        )
    return 0
