"""Observability: trace spans, Prometheus-style metrics, phase profiling.

Four stdlib-only modules (safe to import from any layer, including the
inversion hot paths in :mod:`repro.core`):

- :mod:`repro.obs.trace` — span recording with cross-process propagation:
  the parent stamps ``(trace_id, parent_span_id)`` onto resolved jobs,
  workers record under that context, and their span buffers ride back on
  result records to be stitched into one tree per request.
- :mod:`repro.obs.metrics` — counters/gauges/histograms rendered in the
  Prometheus text exposition format, the :data:`~repro.obs.metrics.PROFILER`
  hot-path phase hook, and :func:`~repro.obs.metrics.build_service_registry`
  which derives the service metric families from store records + daemon
  stats (the same families back ``metrics.prom`` and ``repro metrics``).
- :mod:`repro.obs.render` — ASCII span-tree rendering for ``repro trace``.
- :mod:`repro.obs.logging` — the shared ``repro`` logger
  (:func:`~repro.obs.logging.get_logger`, ``REPRO_LOG_LEVEL``), imported
  by module path; :mod:`repro.utils` re-exports it.

Everything is disabled by default; the service layer opts in per process
(``REPRO_TELEMETRY=0`` or ``--no-telemetry`` opt back out).
"""

from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Profiler,
    PROFILER,
    DEFAULT_LATENCY_BUCKETS,
    build_service_registry,
    summarize_telemetry,
    parse_prometheus_text,
)
from .render import (
    render_trace,
    summarize_traces,
    format_trace_summaries,
)
from .trace import (
    Span,
    Tracer,
    TRACER,
    span,
    new_trace_id,
    telemetry_enabled,
    write_spans,
    read_spans,
)

__all__ = [
    "Span",
    "Tracer",
    "TRACER",
    "span",
    "new_trace_id",
    "telemetry_enabled",
    "write_spans",
    "read_spans",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Profiler",
    "PROFILER",
    "DEFAULT_LATENCY_BUCKETS",
    "build_service_registry",
    "summarize_telemetry",
    "parse_prometheus_text",
    "render_trace",
    "summarize_traces",
    "format_trace_summaries",
]
