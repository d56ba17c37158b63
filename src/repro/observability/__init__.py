"""Structured tracing and live telemetry for the pipeline.

Public surface:

* :class:`Tracer`, :func:`use_tracer` / :func:`active_tracer` —
  collect a span tree for a dynamic extent;
* :func:`span` / :func:`count` / :func:`traced` — instrumentation
  points (no-ops when no tracer is installed);
* :data:`SCHEMA`, :func:`write_trace` / :func:`load_trace` /
  :func:`validate_trace`, :class:`Trace` — ``repro.trace/1`` JSONL;
* :func:`summary_table` / :func:`flame_report` / :func:`aggregate` /
  :func:`hot_span` / :func:`counter_totals` — reporting;
* :class:`MetricsRegistry`, :func:`use_metrics` /
  :func:`active_metrics`, the :func:`metric_inc` emission point,
  :data:`METRICS_SCHEMA`, :func:`validate_metrics` — live
  counters/gauges/histograms (``repro.metrics/1``);
* :class:`TelemetryExporter`, :func:`load_metrics_file` /
  :func:`summarize_metrics` / :func:`diff_metrics` — snapshot export
  and file tooling.
"""

from repro.observability.export import (
    TelemetryExporter,
    diff_metrics,
    load_metrics_file,
    summarize_metrics,
)
from repro.observability.metrics import (
    LATENCY_BOUNDARIES_MS,
    METRICS_SCHEMA,
    MetricsRegistry,
    active_metrics,
    snapshot_percentile,
    use_metrics,
    validate_metrics,
)
from repro.observability.metrics import inc as metric_inc
from repro.observability.report import (
    aggregate,
    flame_report,
    hot_span,
    summary_table,
    trace_origins,
)
from repro.observability.trace_io import (
    SCHEMA,
    Trace,
    load_trace,
    validate_trace,
    write_trace,
)
from repro.observability.tracer import (
    Tracer,
    active_tracer,
    count,
    counter_totals,
    span,
    traced,
    use_tracer,
)

__all__ = [
    "LATENCY_BOUNDARIES_MS",
    "METRICS_SCHEMA",
    "MetricsRegistry",
    "SCHEMA",
    "TelemetryExporter",
    "Trace",
    "Tracer",
    "active_metrics",
    "active_tracer",
    "aggregate",
    "count",
    "counter_totals",
    "diff_metrics",
    "flame_report",
    "hot_span",
    "load_metrics_file",
    "load_trace",
    "metric_inc",
    "snapshot_percentile",
    "span",
    "summarize_metrics",
    "summary_table",
    "trace_origins",
    "traced",
    "use_metrics",
    "use_tracer",
    "validate_metrics",
    "validate_trace",
    "write_trace",
]
