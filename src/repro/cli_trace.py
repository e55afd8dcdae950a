"""The ``trace`` CLI subcommand: inspect a telemetry export.

Reads what ``repro-bandwidth simulate --telemetry DIR`` (or ``run
--telemetry DIR``) wrote — ``spans.jsonl`` plus ``manifest.json`` — and
prints a span summary grouped by kind, the profiling throughput, and the
manifest's provenance highlights::

    repro-bandwidth trace out/telemetry
    repro-bandwidth trace out/telemetry/spans.jsonl --kind signaling --spans 20

and converts the span log into external viewers' formats:

    repro-bandwidth trace out/telemetry --perfetto trace.json   # ui.perfetto.dev
    repro-bandwidth trace out/telemetry --flame stacks.txt      # flamegraph.pl
"""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.analysis.report import render_table
from repro.errors import ConfigError
from repro.obs.export import export_flamegraph, export_perfetto_json
from repro.obs.manifest import load_manifest
from repro.obs.tracing import Span, load_spans_jsonl


def add_trace_parser(sub: argparse._SubParsersAction) -> None:
    """Register the ``trace`` subcommand."""
    parser = sub.add_parser(
        "trace", help="summarize a telemetry export (spans.jsonl / directory)"
    )
    parser.add_argument(
        "path",
        help="telemetry directory (containing spans.jsonl) or a spans.jsonl "
        "file",
    )
    parser.add_argument(
        "--kind",
        default=None,
        help="only consider spans of this kind (run, stage, phase, signaling)",
    )
    parser.add_argument(
        "--spans",
        type=int,
        default=0,
        metavar="N",
        help="also print the first N matching spans verbatim",
    )
    parser.add_argument(
        "--perfetto",
        type=str,
        default=None,
        metavar="FILE",
        help="export the (filtered) spans as Chrome trace-event JSON, "
        "loadable in ui.perfetto.dev / chrome://tracing",
    )
    parser.add_argument(
        "--flame",
        type=str,
        default=None,
        metavar="FILE",
        help="export the (filtered) spans as collapsed stacks for "
        "flamegraph.pl / speedscope",
    )


def _resolve(path_arg: str) -> tuple[Path, Path | None]:
    """Map the positional arg to (spans path, optional manifest path)."""
    path = Path(path_arg)
    if path.is_dir():
        spans = path / "spans.jsonl"
        manifest = path / "manifest.json"
    else:
        spans = path
        manifest = path.parent / "manifest.json"
    if not spans.is_file():
        raise ConfigError(f"no span file at {spans}")
    return spans, manifest if manifest.is_file() else None


def _summary_rows(spans: list[Span]) -> list[list[str]]:
    groups: dict[tuple[str, str], list[int]] = {}
    for span in spans:
        groups.setdefault((span.kind, span.name), []).append(span.duration)
    rows = []
    for (kind, name), durations in sorted(groups.items()):
        total = sum(durations)
        rows.append(
            [
                kind,
                name,
                str(len(durations)),
                str(total),
                f"{total / len(durations):.1f}",
                str(max(durations)),
            ]
        )
    return rows


def run_trace(args) -> int:
    """Execute the subcommand; returns the process exit code."""
    spans_path, manifest_path = _resolve(args.path)
    spans = load_spans_jsonl(spans_path)
    if args.kind is not None:
        spans = [span for span in spans if span.kind == args.kind]
    if not spans:
        print(f"no spans{f' of kind {args.kind!r}' if args.kind else ''} "
              f"in {spans_path}")
        return 1

    if args.perfetto:
        events = export_perfetto_json(args.perfetto, spans)
        print(f"perfetto trace written to {args.perfetto} ({events} events)")
    if args.flame:
        stacks = export_flamegraph(args.flame, spans)
        print(f"flamegraph stacks written to {args.flame} ({stacks} stacks)")

    print(
        render_table(
            ["kind", "name", "count", "total slots", "mean", "max"],
            _summary_rows(spans),
            title=f"trace: {spans_path} ({len(spans)} spans)",
        )
    )

    if manifest_path is not None:
        manifest = load_manifest(manifest_path)
        print(
            f"\nmanifest: label={manifest.get('label')} "
            f"seed={manifest.get('seed')} "
            f"config_hash={str(manifest.get('config_hash'))[:12]} "
            f"git_rev={str(manifest.get('git_rev'))[:12]}"
        )
        for profile in manifest.get("profiles", []):
            print(
                f"  profile {profile['name']}: {profile['slots']} slots in "
                f"{profile['seconds']:.4f}s "
                f"({profile['slots_per_sec']:,.0f} slots/sec)"
            )

    if args.spans > 0:
        print()
        for span in spans[: args.spans]:
            attrs = " ".join(
                f"{key}={value}" for key, value in span.attrs.items()
            )
            end = "open" if span.t1 is None else str(span.t1)
            print(f"  [{span.t0:>8} .. {end:>8}] {span.kind}/{span.name} "
                  f"{attrs}")
    return 0
