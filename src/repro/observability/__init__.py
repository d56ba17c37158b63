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
  :func:`active_metrics`, the :func:`metric_inc` /
  :func:`metric_gauge` / :func:`metric_observe` emission points,
  :data:`METRICS_SCHEMA`, :func:`validate_metrics` — live
  counters/gauges/histograms (``repro.metrics/1``);
* :class:`EventLog`, :func:`use_event_log` / :func:`active_event_log` /
  :func:`emit_event`, :data:`EVENTS_SCHEMA`, :data:`EVENT_KINDS`,
  :func:`validate_event` / :func:`load_events` — the structured
  operational event stream (``repro.events/1``);
* :class:`TelemetryExporter`, :func:`render_prometheus`,
  :func:`load_metrics_file` / :func:`summarize_metrics` /
  :func:`diff_metrics` — snapshot export and file tooling.
"""

from repro.observability.events import (
    EVENT_KINDS,
    EVENTS_SCHEMA,
    EventLog,
    active_event_log,
    load_events,
    use_event_log,
    validate_event,
)
from repro.observability.events import emit as emit_event
from repro.observability.export import (
    TelemetryExporter,
    diff_metrics,
    load_metrics_file,
    render_prometheus,
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
from repro.observability.metrics import observe as metric_observe
from repro.observability.metrics import set_gauge as metric_gauge
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
    "EVENT_KINDS",
    "EVENTS_SCHEMA",
    "EventLog",
    "LATENCY_BOUNDARIES_MS",
    "METRICS_SCHEMA",
    "MetricsRegistry",
    "SCHEMA",
    "TelemetryExporter",
    "Trace",
    "Tracer",
    "active_event_log",
    "active_metrics",
    "active_tracer",
    "aggregate",
    "count",
    "counter_totals",
    "diff_metrics",
    "emit_event",
    "flame_report",
    "hot_span",
    "load_events",
    "load_metrics_file",
    "load_trace",
    "metric_gauge",
    "metric_inc",
    "metric_observe",
    "render_prometheus",
    "snapshot_percentile",
    "span",
    "summarize_metrics",
    "summary_table",
    "trace_origins",
    "traced",
    "use_event_log",
    "use_metrics",
    "use_tracer",
    "validate_event",
    "validate_metrics",
    "validate_trace",
    "write_trace",
]
