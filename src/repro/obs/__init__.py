"""Observability: trace spans, Prometheus-style metrics, phase profiling.

Four stdlib-only modules (safe to import from any layer, including the
inversion hot paths in :mod:`repro.core`), which load lazily: importing
the package, or one of its modules, loads none of the others, and each
name below resolves from its module on first access (:mod:`repro._lazy`).
A cache hit, which only traces and logs, never loads the metrics registry
or the span renderer.

- :mod:`repro.obs.trace` — span recording with cross-process propagation:
  the parent stamps ``(trace_id, parent_span_id)`` onto resolved jobs,
  workers record under that context, and their span buffers ride back on
  result records to be stitched into one tree per request.  The
  :data:`~repro.obs.trace.PROFILER` hot-path phase hook lives beside the
  tracer.
- :mod:`repro.obs.metrics` — counters/gauges/histograms rendered in the
  Prometheus text exposition format, and
  :func:`~repro.obs.metrics.build_service_registry` which derives the
  service metric families from store records + daemon stats (the same
  families back ``metrics.prom`` and ``repro metrics``).
- :mod:`repro.obs.render` — ASCII span-tree rendering for ``repro trace``.
- :mod:`repro.obs.logging` — the shared ``repro`` logger
  (:func:`~repro.obs.logging.get_logger`, ``REPRO_LOG_LEVEL``), imported
  by module path; :mod:`repro.utils` re-exports it.

Everything is disabled by default; the service layer opts in per process
(``REPRO_TELEMETRY=0`` or ``--no-telemetry`` opt back out).
"""

from typing import Dict

from .._lazy import lazy_exports

#: Public name -> the submodule that defines it, in ``__all__`` order.
_EXPORTS: Dict[str, str] = {
    "Span": "trace", "Tracer": "trace", "TRACER": "trace", "span": "trace",
    "new_trace_id": "trace", "telemetry_enabled": "trace",
    "write_spans": "trace", "read_spans": "trace",
    "Counter": "metrics", "Gauge": "metrics", "Histogram": "metrics",
    "MetricsRegistry": "metrics", "Profiler": "trace", "PROFILER": "trace",
    "DEFAULT_LATENCY_BUCKETS": "metrics",
    "build_service_registry": "metrics", "summarize_telemetry": "metrics",
    "parse_prometheus_text": "metrics",
    "render_trace": "render", "summarize_traces": "render",
    "format_trace_summaries": "render",
}

__all__ = list(_EXPORTS)

__getattr__ = lazy_exports(__name__, _EXPORTS)
