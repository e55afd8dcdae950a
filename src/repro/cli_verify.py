"""The ``verify`` subcommand: certify experiments or saved traces.

``repro verify all`` rebuilds every registered experiment's scenario
(:mod:`repro.experiments.scenarios`), replays the traces through the
engine-independent certificate checker, and prints one report per trace;
``repro verify E-T6 out/trace.npz`` mixes experiment ids with ``.npz``
trace files saved by ``simulate --save-trace``.  Exit code 0 iff every
report certified.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.errors import ConfigError
from repro.params import OfflineConstraints
from repro.verify.certificates import (
    certify_multi,
    certify_single,
    combined_bounds,
    continuous_bounds,
    phased_bounds,
    raw_single_bounds,
    single_session_bounds,
)
from repro.verify.report import CertificateReport


def add_verify_parser(sub: argparse._SubParsersAction) -> None:
    """Register the ``verify`` subcommand."""
    parser = sub.add_parser(
        "verify",
        help="certify theorem bounds on experiment scenarios or saved traces",
    )
    parser.add_argument(
        "targets",
        nargs="+",
        help="experiment ids, 'all', or .npz trace files "
        "(from simulate --save-trace)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="shrink scenario horizons by this factor (default 1.0)",
    )
    parser.add_argument(
        "--json",
        type=str,
        default=None,
        metavar="PATH",
        help="also write all reports as a JSON array",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="print only per-report verdict lines, not every check",
    )
    # Bounds for .npz targets (scenario targets carry their own).
    parser.add_argument(
        "--bandwidth", type=float, default=64.0, help="offline B_O for .npz targets"
    )
    parser.add_argument(
        "--delay", type=int, default=8, help="offline D_O for .npz targets"
    )
    parser.add_argument(
        "--utilization",
        type=float,
        default=0.25,
        help="offline U_O for single-session .npz targets",
    )
    parser.add_argument(
        "--window", type=int, default=16, help="offline W for .npz targets"
    )
    parser.add_argument(
        "--variant",
        choices=("phased", "continuous", "combined"),
        default="phased",
        help="theorem family for multi-session .npz targets",
    )
    parser.add_argument(
        "--uncertified",
        action="store_true",
        help="the workload carries no feasibility certificate: check only "
        "the unconditional accounting bounds",
    )


def _certify_file(path: Path, args) -> CertificateReport:
    from repro.sim.serialize import load_any_trace

    trace = load_any_trace(path)
    arrivals = trace.arrivals
    if getattr(arrivals, "ndim", 1) == 1:
        if args.uncertified:
            bounds = raw_single_bounds(args.bandwidth, args.delay)
        else:
            offline = OfflineConstraints(
                bandwidth=args.bandwidth,
                delay=args.delay,
                utilization=args.utilization,
                window=args.window,
            )
            bounds = single_session_bounds(offline)
        return certify_single(trace, bounds, label=str(path))
    k = arrivals.shape[1]
    feasible = not args.uncertified
    if args.variant == "phased":
        bounds = phased_bounds(args.bandwidth, args.delay, k, feasible)
    elif args.variant == "continuous":
        bounds = continuous_bounds(args.bandwidth, args.delay, k, feasible)
    else:
        offline = OfflineConstraints(
            bandwidth=args.bandwidth,
            delay=args.delay,
            utilization=args.utilization,
            window=args.window,
        )
        bounds = combined_bounds(offline, k, feasible=feasible)
    return certify_multi(trace, bounds, label=str(path))


def run_verify(args) -> int:
    """Execute the subcommand; returns the process exit code."""
    from repro.experiments import registry
    from repro.experiments.scenarios import certify_experiment, scenario_ids

    targets = list(args.targets)
    if targets == ["all"]:
        targets = sorted(set(registry.all_ids()) | set(scenario_ids()))
    reports: list[CertificateReport] = []
    for target in targets:
        path = Path(target)
        if target.endswith(".npz") or path.is_file():
            if not path.is_file():
                raise ConfigError(f"trace file {target!r} does not exist")
            reports.append(_certify_file(path, args))
        else:
            reports.extend(
                certify_experiment(target, seed=args.seed, scale=args.scale)
            )
    failed = 0
    for report in reports:
        if args.quiet:
            status = "CERTIFIED" if report.certified else "NOT CERTIFIED"
            print(f"{status:14s} {report.label} ({report.checked_count} checks)")
        else:
            print(report.render())
            print()
    failed = sum(1 for report in reports if not report.certified)
    if args.json:
        with open(args.json, "w") as handle:
            json.dump([report.as_dict() for report in reports], handle, indent=2)
        print(f"wrote {args.json}")
    print(
        f"{len(reports) - failed}/{len(reports)} traces certified"
        + (f" — {failed} FAILED" if failed else "")
    )
    return 1 if failed else 0
