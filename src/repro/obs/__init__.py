"""Observability: metrics, span tracing, profiling, and run manifests.

The subsystem is off by default and near-zero-cost when off; enable it
around any simulation with::

    from repro.obs import telemetry_session

    with telemetry_session() as tele:
        trace = run_single_session(policy, arrivals)

    tele.registry.snapshot()     # counters / gauges / histograms
    tele.tracer.spans            # stage, phase, signaling-transaction spans
    tele.profiles                # wall-clock slots/sec of the run loops

See docs/OBSERVABILITY.md for the registry API, span schema, and manifest
format, and the ``repro trace`` CLI subcommand for reading exports back.
"""

from repro.obs.export import (
    collapse_spans,
    export_flamegraph,
    export_perfetto_json,
    openmetrics_name,
    parse_openmetrics,
    render_openmetrics,
    spans_to_trace_events,
)
from repro.obs.live import (
    LiveObservatory,
    TelemetryServer,
    parse_serve,
    serve_session,
    start_observatory,
)
from repro.obs.manifest import (
    RunManifest,
    build_manifest,
    config_hash,
    export_run,
    git_revision,
    load_manifest,
    write_manifest,
)
from repro.obs.profiling import ProfileRecord, ProfileTimer
from repro.obs.progress import (
    JsonlProgress,
    ProgressEvent,
    ProgressTracker,
    TtyProgress,
    progress_sink,
    snapshot_slots,
    sparkline,
)
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    bucket_percentile,
)
from repro.obs.runtime import (
    DISABLED,
    Telemetry,
    count,
    get_telemetry,
    set_telemetry,
    telemetry_session,
)
from repro.obs.series import Sampler, Series, SeriesStore
from repro.obs.tracing import (
    NullTracer,
    Span,
    Tracer,
    export_spans_jsonl,
    load_spans_jsonl,
)

__all__ = [
    "Counter",
    "DISABLED",
    "Gauge",
    "Histogram",
    "JsonlProgress",
    "LiveObservatory",
    "MetricsRegistry",
    "NullRegistry",
    "NullTracer",
    "ProfileRecord",
    "ProfileTimer",
    "ProgressEvent",
    "ProgressTracker",
    "RunManifest",
    "Sampler",
    "Series",
    "SeriesStore",
    "Span",
    "Telemetry",
    "TelemetryServer",
    "Tracer",
    "TtyProgress",
    "bucket_percentile",
    "build_manifest",
    "collapse_spans",
    "config_hash",
    "count",
    "export_flamegraph",
    "export_perfetto_json",
    "export_run",
    "export_spans_jsonl",
    "get_telemetry",
    "git_revision",
    "load_manifest",
    "load_spans_jsonl",
    "openmetrics_name",
    "parse_openmetrics",
    "parse_serve",
    "progress_sink",
    "render_openmetrics",
    "serve_session",
    "set_telemetry",
    "snapshot_slots",
    "spans_to_trace_events",
    "sparkline",
    "start_observatory",
    "telemetry_session",
    "write_manifest",
]
