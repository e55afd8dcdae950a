"""The ``arena`` subcommand: the policy tournament, ranked.

``repro arena`` sweeps every requested policy × traffic-model ×
fault-intensity cell deterministically and prints the ranked scorecard.
``--out DIR`` writes ``scorecard.json`` (canonical bytes) plus the sweep
journal; ``--resume`` replays journaled cells; ``--golden PATH`` compares
the canonical scorecard bytes against a pinned fixture and exits
non-zero on any drift (the regression mode the ``arena-smoke`` CI job
runs).  Cells run as ``E-ARENA`` sweep points, cached content-addressed
in the ``shards`` section when ``REPRO_CACHE_DIR`` is set (so a
``repro report`` run warms them too); ``--jobs N`` fans cells out to
worker processes — the scorecard bytes are identical for every ``N`` and
every cache temperature.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.arena import (
    FAULTS,
    POLICIES,
    TRAFFIC,
    TournamentConfig,
    render_scorecard,
    run_tournament,
    scorecard_json,
)
from repro.obs.live import serve_session
from repro.obs.progress import PROGRESS_MODES, ProgressTracker, progress_sink
from repro.runner import SweepJournal, get_cache


def add_arena_parser(sub: argparse._SubParsersAction) -> None:
    """Register the ``arena`` subcommand."""
    parser = sub.add_parser(
        "arena",
        help="run the allocator tournament and print the ranked scorecard",
    )
    parser.add_argument(
        "--policies",
        nargs="+",
        choices=sorted(POLICIES),
        default=sorted(POLICIES),
        help="contestants (default: the full catalog)",
    )
    parser.add_argument(
        "--traffic",
        nargs="+",
        choices=sorted(TRAFFIC),
        default=sorted(TRAFFIC),
        help="traffic models (default: the full catalog)",
    )
    parser.add_argument(
        "--faults",
        nargs="+",
        type=float,
        default=list(FAULTS),
        metavar="INTENSITY",
        help=f"fault intensities in [0, 1] (default: {list(FAULTS)})",
    )
    parser.add_argument(
        "--cells",
        type=str,
        default=None,
        metavar="P/T/fF",
        nargs="+",
        help="run only these cells, e.g. 'max-min/smooth/f0' "
        "(overrides the axis flags)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="recorded in the scorecard config (default 1.0)",
    )
    parser.add_argument(
        "--sessions", type=int, default=4, metavar="K", help="default 4"
    )
    parser.add_argument(
        "--horizon", type=int, default=256, help="slots per cell (default 256)"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes (default 1 = inline)",
    )
    parser.add_argument(
        "--out",
        type=str,
        default=None,
        metavar="DIR",
        help="write DIR/scorecard.json + DIR/journal.jsonl",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="replay finished cells from DIR/journal.jsonl (needs --out)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="print the canonical scorecard JSON instead of the table",
    )
    parser.add_argument(
        "--golden",
        type=str,
        default=None,
        metavar="PATH",
        help="compare the canonical scorecard bytes against this fixture "
        "and exit non-zero on drift",
    )
    parser.add_argument(
        "--progress",
        choices=PROGRESS_MODES,
        default="auto",
        help="live cell progress on stderr (default auto)",
    )
    parser.add_argument(
        "--serve",
        type=str,
        default=None,
        metavar="[HOST:]PORT",
        help="expose live telemetry over HTTP while the tournament runs "
        "(0 = ephemeral port, URL printed to stderr; attach with "
        "'repro watch')",
    )


def _parse_cells(specs: list[str]) -> tuple[tuple, tuple, tuple]:
    """Narrow the grid to the axes spanned by explicit cell names.

    The tournament grid is a cross product, so ``--cells`` keeps the
    distinct values per axis in first-mention order (a non-rectangular
    selection runs the covering rectangle).
    """
    policies: list[str] = []
    traffic: list[str] = []
    faults: list[float] = []
    for spec in specs:
        parts = spec.split("/")
        if len(parts) != 3 or not parts[2].startswith("f"):
            raise ValueError(
                f"cell spec must look like policy/traffic/fINTENSITY, "
                f"got {spec!r}"
            )
        policy, model, fault = parts[0], parts[1], float(parts[2][1:])
        if policy not in policies:
            policies.append(policy)
        if model not in traffic:
            traffic.append(model)
        if fault not in faults:
            faults.append(fault)
    return tuple(policies), tuple(traffic), tuple(faults)


def run_arena(args) -> int:
    if args.cells:
        try:
            policies, traffic, faults = _parse_cells(args.cells)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
    else:
        policies = tuple(args.policies)
        traffic = tuple(args.traffic)
        faults = tuple(dict.fromkeys(args.faults))

    config = TournamentConfig(
        policies=policies,
        traffic=traffic,
        faults=faults,
        k=args.sessions,
        horizon=args.horizon,
        seed=args.seed,
        scale=args.scale,
        jobs=args.jobs,
    )

    out = Path(args.out) if args.out else None
    if args.resume and out is None:
        print("--resume needs --out (the journal lives there)", file=sys.stderr)
        return 2
    journal = None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        journal = SweepJournal(out / "journal.jsonl")
        if not args.resume:
            # A fresh run must not replay a stale journal: start clean.
            journal.close()
            (out / "journal.jsonl").unlink(missing_ok=True)
            journal = SweepJournal(out / "journal.jsonl")

    sink = progress_sink(args.progress)
    try:
        with serve_session(getattr(args, "serve", None), label="arena") as obs:
            if obs is not None:
                sink = obs.progress_tee(sink)
            tracker = (
                ProgressTracker(len(config.cells()), sink)
                if sink is not None
                else None
            )
            try:
                if tracker is not None:
                    tracker.start()
                report = run_tournament(
                    config, cache=get_cache(), journal=journal, tracker=tracker
                )
            finally:
                if tracker is not None:
                    tracker.finish()
    finally:
        if journal is not None:
            journal.close()

    encoded = scorecard_json(report.scorecard)
    if args.json:
        print(encoded, end="")
    else:
        print(render_scorecard(report.scorecard))
        print(
            f"cells: {report.computed} computed, {report.from_cache} cached, "
            f"{report.from_journal} journaled"
        )
    if out is not None:
        (out / "scorecard.json").write_text(encoded)
        print(f"wrote {out / 'scorecard.json'}", file=sys.stderr)

    status = 0
    for shard in report.failed:
        print(f"cell failed: {shard.label}: {shard.error}", file=sys.stderr)
        status = 1
    if args.golden is not None:
        golden = Path(args.golden).read_text()
        if golden != encoded:
            print(
                f"scorecard drifted from golden fixture {args.golden}",
                file=sys.stderr,
            )
            status = 1
        else:
            print(f"scorecard matches {args.golden}", file=sys.stderr)
    return status
