"""Command-line interface: ``python -m repro`` / ``repro-bandwidth``.

Subcommands:

* ``list`` — show every registered experiment.
* ``run E-T6 [E-T14 ...] | all`` — run experiments and print the tables;
  ``--markdown`` emits EXPERIMENTS.md-ready blocks, ``--out`` writes to a
  file, ``--scale`` shrinks horizons for a quick look.
* ``simulate`` — run one policy on one workload and print the QoS row
  (see :mod:`repro.cli_simulate`).
* ``report`` — run everything and write EXPERIMENTS.md; ``--jobs N``
  fans out across worker processes (see :mod:`repro.cli_report`).
* ``trace`` — summarize a telemetry export written by ``simulate
  --telemetry`` / ``run --telemetry``; ``--perfetto`` / ``--flame``
  convert it for external viewers (see :mod:`repro.cli_trace`).
* ``metrics`` — render a telemetry export's metrics snapshot as
  OpenMetrics/Prometheus text (see :mod:`repro.cli_metrics`).
* ``cache`` — inspect or clear the content-addressed workload/result
  cache (see :mod:`repro.cli_cache`).
* ``verify`` — certify theorem bounds (Claim 2, Lemma 3, Corollary 4,
  Lemma 5, Lemmas 10/16) on experiment scenarios or saved traces via the
  engine-independent certificate checker (see :mod:`repro.cli_verify`).
* ``watch`` — live TTY dashboard over a run started with ``--serve``
  (``report`` / ``arena`` / ``attack``), polling its telemetry server
  (see :mod:`repro.cli_watch`).
"""

from __future__ import annotations

import argparse
import sys
import time
from contextlib import nullcontext

from repro.cli_arena import add_arena_parser, run_arena
from repro.cli_attack import add_attack_parser, run_attack
from repro.cli_cache import add_cache_parser, run_cache
from repro.cli_metrics import add_metrics_parser, run_metrics
from repro.cli_report import add_report_parser, run_report
from repro.cli_simulate import add_simulate_parser, run_simulate
from repro.cli_trace import add_trace_parser, run_trace
from repro.cli_verify import add_verify_parser, run_verify
from repro.cli_watch import add_watch_parser, run_watch
from repro.experiments import registry
from repro.obs import export_run, telemetry_session
from repro.version import __version__


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bandwidth",
        description=(
            "Competitive Dynamic Bandwidth Allocation (PODC 1998) — "
            "experiment runner"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered experiments")

    run_parser = sub.add_parser("run", help="run experiments")
    run_parser.add_argument(
        "ids", nargs="+", help="experiment ids (or 'all')"
    )
    run_parser.add_argument("--seed", type=int, default=0)
    run_parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="shrink horizons/sweeps by this factor (default 1.0)",
    )
    run_parser.add_argument(
        "--markdown", action="store_true", help="emit markdown blocks"
    )
    run_parser.add_argument("--out", type=str, default=None, help="output file")
    run_parser.add_argument(
        "--telemetry",
        type=str,
        default=None,
        metavar="DIR",
        help="capture metrics/spans/profiling across the experiments and "
        "write DIR/spans.jsonl + DIR/manifest.json (inspect with 'trace')",
    )

    add_simulate_parser(sub)
    add_report_parser(sub)
    add_trace_parser(sub)
    add_metrics_parser(sub)
    add_cache_parser(sub)
    add_verify_parser(sub)
    add_attack_parser(sub)
    add_arena_parser(sub)
    add_watch_parser(sub)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        for experiment_id, description in registry.describe():
            print(f"{experiment_id:8s} {description}")
        return 0
    if args.command == "simulate":
        return run_simulate(args)
    if args.command == "report":
        return run_report(args)
    if args.command == "trace":
        return run_trace(args)
    if args.command == "metrics":
        return run_metrics(args)
    if args.command == "cache":
        return run_cache(args)
    if args.command == "verify":
        return run_verify(args)
    if args.command == "attack":
        return run_attack(args)
    if args.command == "arena":
        return run_arena(args)
    if args.command == "watch":
        return run_watch(args)

    ids = registry.all_ids() if args.ids == ["all"] else args.ids
    blocks: list[str] = []
    failed = False
    context = (
        telemetry_session() if args.telemetry is not None else nullcontext()
    )
    with context as tele:
        for experiment_id in ids:
            started = time.perf_counter()
            result = registry.run(
                experiment_id, seed=args.seed, scale=args.scale
            )
            elapsed = time.perf_counter() - started
            block = result.to_markdown() if args.markdown else result.render()
            blocks.append(block + f"\n\n(ran in {elapsed:.1f}s)")
            if not result.all_passed:
                failed = True
        if tele is not None:
            spans_path, manifest_path = export_run(
                args.telemetry,
                tele,
                label="run:" + ",".join(ids),
                config={"ids": ids, "seed": args.seed, "scale": args.scale},
                seed=args.seed,
            )
            print(f"telemetry written to {spans_path} and {manifest_path}")
    output = ("\n\n" + "=" * 78 + "\n\n").join(blocks)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(output + "\n")
        print(f"wrote {args.out}")
    else:
        print(output)
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
