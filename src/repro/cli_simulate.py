"""The ``simulate`` CLI subcommand: run one policy on one workload.

Lets a user exercise the library without writing Python::

    repro-bandwidth simulate --policy fig3 --traffic onoff --horizon 5000 \
        --bandwidth 64 --delay 8 --utilization 0.25 --window 16 --seed 7

    repro-bandwidth simulate --policy phased --traffic multi-feasible \
        --sessions 8 --bandwidth 96 --delay 8 --save-trace run.npz
"""

from __future__ import annotations

import argparse
from contextlib import nullcontext

from repro.analysis.metrics import summarize_multi, summarize_single
from repro.analysis.report import render_table
from repro.core.baselines import (
    EwmaAllocator,
    PerSlotAllocator,
    PeriodicRenegotiationAllocator,
    StaticAllocator,
)
from repro.core.continuous import ContinuousMultiSession
from repro.core.modified_single import ModifiedSingleSessionOnline
from repro.core.phased import PhasedMultiSession
from repro.core.single_session import SingleSessionOnline
from repro.errors import ConfigError, SimulationError
from repro.faults import (
    HeadroomPolicy,
    RetryPolicy,
    install_signaling,
    standard_plan,
)
from repro.obs import export_run, telemetry_session
from repro.sim.engine import run_multi_session, run_single_session
from repro.sim.serialize import save_multi_trace, save_single_trace
from repro.runner.cache import cached_feasible_stream, cached_multi_feasible
from repro.traffic import (
    MpegVbr,
    OnOffBursts,
    ParetoBursts,
    PoissonArrivals,
    SelfSimilarAggregate,
    figure1_demand,
)
from repro.params import OfflineConstraints

SINGLE_POLICIES = ("fig3", "thm7", "static", "per-slot", "periodic", "ewma")
MULTI_POLICIES = ("phased", "continuous")
SINGLE_TRAFFIC = (
    "figure1",
    "onoff",
    "poisson",
    "vbr",
    "pareto",
    "selfsimilar",
    "feasible",
)
MULTI_TRAFFIC = ("multi-feasible",)


def add_simulate_parser(sub: argparse._SubParsersAction) -> None:
    """Register the ``simulate`` subcommand."""
    parser = sub.add_parser(
        "simulate", help="run one policy on one workload and print QoS"
    )
    parser.add_argument(
        "--policy", choices=SINGLE_POLICIES + MULTI_POLICIES, default="fig3"
    )
    parser.add_argument(
        "--traffic", choices=SINGLE_TRAFFIC + MULTI_TRAFFIC, default="figure1"
    )
    parser.add_argument("--horizon", type=int, default=5000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--bandwidth", type=float, default=64.0, help="B_A / B_O (bits per slot)"
    )
    parser.add_argument("--delay", type=int, default=8, help="offline delay D_O")
    parser.add_argument("--utilization", type=float, default=0.25, help="U_O")
    parser.add_argument("--window", type=int, default=16, help="W")
    parser.add_argument("--rate", type=float, default=8.0, help="mean traffic rate")
    parser.add_argument(
        "--sessions", type=int, default=4, help="k (multi-session only)"
    )
    parser.add_argument(
        "--save-trace", type=str, default=None, help="write the trace to .npz"
    )
    parser.add_argument(
        "--queue-capacity",
        type=float,
        default=None,
        help="finite ingress buffer in bits (single-session only; "
        "default unbounded)",
    )
    parser.add_argument(
        "--fault-intensity",
        type=float,
        default=0.0,
        help="fault injection intensity in [0, 1] (0 = fault-free); "
        "builds a seeded standard_plan of degradation episodes, signal "
        "loss/delay/outage and ingress drops",
    )
    parser.add_argument(
        "--retry-attempts",
        type=int,
        default=4,
        help="signaling retry attempts per transaction (1 = no retry; "
        "only with --fault-intensity > 0)",
    )
    parser.add_argument(
        "--headroom",
        type=float,
        default=1.0,
        help="over-request factor >= 1 (single-session only): request "
        "factor × the policy's decision to ride out faults",
    )
    parser.add_argument(
        "--telemetry",
        type=str,
        default=None,
        metavar="DIR",
        help="capture metrics/spans/profiling for this run and write "
        "DIR/spans.jsonl + DIR/manifest.json (inspect with 'trace')",
    )


def _build_single_traffic(args):
    if args.traffic == "figure1":
        return figure1_demand(mean_rate=args.rate).materialize(
            args.horizon, args.seed
        )
    if args.traffic == "onoff":
        return OnOffBursts(
            on_rate=2 * args.rate, mean_on=20, mean_off=20, jitter=0.3
        ).materialize(args.horizon, args.seed)
    if args.traffic == "poisson":
        return PoissonArrivals(args.rate).materialize(args.horizon, args.seed)
    if args.traffic == "vbr":
        return MpegVbr(mean_rate=args.rate).materialize(args.horizon, args.seed)
    if args.traffic == "pareto":
        return ParetoBursts(
            burst_prob=0.1, mean_burst=10 * args.rate, shape=1.6
        ).materialize(args.horizon, args.seed)
    if args.traffic == "selfsimilar":
        return SelfSimilarAggregate(
            sources=16, rate_per_source=args.rate / 4
        ).materialize(args.horizon, args.seed)
    if args.traffic == "feasible":
        offline = OfflineConstraints(
            bandwidth=args.bandwidth,
            delay=args.delay,
            utilization=args.utilization,
            window=args.window,
        )
        return cached_feasible_stream(
            offline, args.horizon, seed=args.seed
        ).arrivals
    raise ConfigError(f"unknown traffic {args.traffic!r}")


def _build_single_policy(args):
    if args.policy == "fig3":
        return SingleSessionOnline(
            max_bandwidth=args.bandwidth,
            offline_delay=args.delay,
            offline_utilization=args.utilization,
            window=args.window,
        )
    if args.policy == "thm7":
        return ModifiedSingleSessionOnline(
            max_bandwidth=args.bandwidth,
            offline_delay=args.delay,
            offline_utilization=args.utilization,
            window=args.window,
        )
    if args.policy == "static":
        return StaticAllocator(args.bandwidth)
    if args.policy == "per-slot":
        return PerSlotAllocator(max_bandwidth=args.bandwidth)
    if args.policy == "periodic":
        return PeriodicRenegotiationAllocator(
            max_bandwidth=args.bandwidth, period=4 * args.delay
        )
    if args.policy == "ewma":
        return EwmaAllocator(max_bandwidth=args.bandwidth, drain_delay=args.delay)
    raise ConfigError(f"unknown policy {args.policy!r}")


def run_simulate(args) -> int:
    """Execute the subcommand; returns the process exit code."""
    multi_policy = args.policy in MULTI_POLICIES
    multi_traffic = args.traffic in MULTI_TRAFFIC
    if multi_policy != multi_traffic:
        raise ConfigError(
            "multi-session policies need --traffic multi-feasible and "
            "vice versa"
        )
    if not 0.0 <= args.fault_intensity <= 1.0:
        raise ConfigError(
            f"--fault-intensity must be in [0, 1], got {args.fault_intensity!r}"
        )
    if args.headroom > 1.0 and multi_policy:
        raise ConfigError("--headroom applies to single-session policies only")
    plan = (
        standard_plan(args.fault_intensity, args.horizon, seed=args.seed)
        if args.fault_intensity > 0.0
        else None
    )
    retry = RetryPolicy(max_attempts=args.retry_attempts)
    headers = [
        "policy",
        "max delay",
        "p99 delay",
        "global util",
        "min W-util",
        "changes",
        "changes/kslot",
        "max alloc",
    ]
    telemetry_dir = args.telemetry
    context = (
        telemetry_session() if telemetry_dir is not None else nullcontext()
    )
    with context as tele:
        try:
            code = _simulate(args, multi_policy, plan, retry, headers)
        except SimulationError as exc:
            if plan is None:
                raise
            # Liveness lost under fault injection (e.g. bits stranded on a
            # channel the algorithm closed after a degraded service window) —
            # report the stall as an outcome instead of a traceback.
            print(f"simulation stalled under fault injection: {exc}")
            print(
                "the policy lost liveness; rerun with a lower "
                "--fault-intensity or more --retry-attempts"
            )
            code = 1
        if tele is not None:
            config = {
                key: value
                for key, value in sorted(vars(args).items())
                if key not in ("command", "telemetry")
            }
            spans_path, manifest_path = export_run(
                telemetry_dir,
                tele,
                label="simulate",
                config=config,
                seed=args.seed,
            )
            print(f"telemetry written to {spans_path} and {manifest_path}")
    return code


def _simulate(args, multi_policy, plan, retry, headers) -> int:
    if multi_policy:
        workload = cached_multi_feasible(
            args.sessions,
            offline_bandwidth=args.bandwidth,
            offline_delay=args.delay,
            horizon=args.horizon,
            seed=args.seed,
        )
        if args.policy == "phased":
            policy = PhasedMultiSession(
                args.sessions,
                offline_bandwidth=args.bandwidth,
                offline_delay=args.delay,
            )
        else:
            policy = ContinuousMultiSession(
                args.sessions,
                offline_bandwidth=args.bandwidth,
                offline_delay=args.delay,
            )
        links = install_signaling(policy, plan, retry) if plan is not None else []
        trace = run_multi_session(policy, workload.arrivals, faults=plan)
        summary = summarize_multi(trace, args.policy, args.window)
        if args.save_trace:
            save_multi_trace(args.save_trace, trace)
    else:
        arrivals = _build_single_traffic(args)
        policy = _build_single_policy(args)
        if args.headroom > 1.0:
            policy = HeadroomPolicy(policy, args.headroom)
        links = install_signaling(policy, plan, retry) if plan is not None else []
        trace = run_single_session(
            policy, arrivals, queue_capacity=args.queue_capacity, faults=plan
        )
        summary = summarize_single(trace, args.policy, args.window)
        if args.save_trace:
            save_single_trace(args.save_trace, trace)
    print(
        render_table(
            headers,
            [summary.as_row()],
            title=f"simulate: {args.policy} on {args.traffic} "
            f"(horizon {args.horizon}, seed {args.seed})",
        )
    )
    print(f"completed stages: {trace.completed_stages}")
    if plan is not None:
        print(
            f"signaling: {sum(link.requests for link in links)} requests, "
            f"{sum(link.drops for link in links)} drops, "
            f"{sum(link.retries for link in links)} retries, "
            f"{sum(link.give_ups for link in links)} give-ups "
            f"(intensity {args.fault_intensity}, "
            f"{args.retry_attempts} attempts)"
        )
    if not multi_policy and trace.total_dropped > 0:
        print(
            f"tail-dropped {trace.total_dropped:.0f} bits "
            f"(loss rate {trace.loss_rate:.4f})"
        )
    if args.save_trace:
        print(f"trace written to {args.save_trace}")
    return 0
