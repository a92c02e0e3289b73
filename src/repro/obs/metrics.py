"""Prometheus-style metrics.

:class:`MetricsRegistry` holds counters, gauges, and histograms and renders
them in the Prometheus text exposition format (``# HELP`` / ``# TYPE``
headers, cumulative ``_bucket{le=...}`` series, ``_sum`` / ``_count``).
:func:`build_service_registry` derives the service's metric families from
plain scan-record dicts plus an optional daemon stats payload, so it works
identically for the live daemon (``metrics.prom`` each cycle) and the
offline ``python -m repro metrics`` subcommand.

The hot-path phase profiler (:class:`~repro.obs.trace.Profiler`,
:data:`~repro.obs.trace.PROFILER`) lives in :mod:`repro.obs.trace`, beside
the tracer every scan runs; it is importable from here too.
"""

from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from .trace import _NULL_PHASE, PROFILER, Profiler  # noqa: F401

__all__ = [
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
]

#: Scan latencies span ~0.5s (tiny test models) to minutes (full scans).
DEFAULT_LATENCY_BUCKETS = (0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
                           60.0, 120.0, 300.0)

_LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Optional[Mapping[str, str]]) -> _LabelKey:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _format_labels(items: _LabelKey, extra: Optional[Tuple[Tuple[str, str], ...]]
                   = None) -> str:
    pairs = list(items) + list(extra or ())
    if not pairs:
        return ""
    body = ",".join(f'{name}="{_escape(value)}"' for name, value in pairs)
    return "{" + body + "}"


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    as_float = float(value)
    if as_float.is_integer() and abs(as_float) < 1e15:
        return str(int(as_float))
    return repr(as_float)


class Counter:
    """A monotonically increasing sample (``*_total`` convention)."""

    kind = "counter"

    def __init__(self, labels: _LabelKey = ()) -> None:
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError(f"counter increments must be >= 0, got {amount}")
        self.value += amount

    def samples(self, name: str) -> List[str]:
        """Exposition lines for this sample."""
        return [f"{name}{_format_labels(self.labels)} "
                f"{_format_value(self.value)}"]


class Gauge:
    """A point-in-time sample that may go up or down."""

    kind = "gauge"

    def __init__(self, labels: _LabelKey = ()) -> None:
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        """Replace the gauge value."""
        self.value = float(value)

    def samples(self, name: str) -> List[str]:
        """Exposition lines for this sample."""
        return [f"{name}{_format_labels(self.labels)} "
                f"{_format_value(self.value)}"]


class Histogram:
    """Cumulative-bucket histogram in the Prometheus exposition shape.

    Args:
        labels: Fixed label set of this series.
        buckets: Ascending upper bounds; ``+Inf`` is implicit.
    """

    kind = "histogram"

    def __init__(self, labels: _LabelKey = (),
                 buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS) -> None:
        self.labels = labels
        self.buckets = tuple(sorted(float(b) for b in buckets))
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket bound")
        self.counts = [0] * len(self.buckets)
        self.total = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self.total += 1
        self.sum += value
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[index] += 1

    def samples(self, name: str) -> List[str]:
        """Exposition lines: cumulative buckets, then ``_sum`` / ``_count``."""
        lines = []
        for bound, count in zip(self.buckets, self.counts):
            extra = (("le", _format_value(bound)),)
            lines.append(f"{name}_bucket{_format_labels(self.labels, extra)} "
                         f"{count}")
        lines.append(f"{name}_bucket{_format_labels(self.labels, (('le', '+Inf'),))} "
                     f"{self.total}")
        lines.append(f"{name}_sum{_format_labels(self.labels)} "
                     f"{_format_value(self.sum)}")
        lines.append(f"{name}_count{_format_labels(self.labels)} {self.total}")
        return lines


class MetricsRegistry:
    """A named collection of metric families rendered as exposition text."""

    def __init__(self) -> None:
        #: name -> (help, kind, {label_key: metric instance})
        self._families: Dict[str, Tuple[str, str, Dict[_LabelKey, Any]]] = {}

    def _family(self, name: str, help_text: str, kind: str
                ) -> Dict[_LabelKey, Any]:
        existing = self._families.get(name)
        if existing is None:
            series: Dict[_LabelKey, Any] = {}
            self._families[name] = (help_text, kind, series)
            return series
        if existing[1] != kind:
            raise ValueError(f"metric {name} registered as {existing[1]}, "
                             f"requested {kind}")
        return existing[2]

    def counter(self, name: str, help_text: str,
                labels: Optional[Mapping[str, str]] = None) -> Counter:
        """Get or create the counter series for ``(name, labels)``."""
        series = self._family(name, help_text, "counter")
        key = _label_key(labels)
        if key not in series:
            series[key] = Counter(key)
        return series[key]

    def gauge(self, name: str, help_text: str,
              labels: Optional[Mapping[str, str]] = None) -> Gauge:
        """Get or create the gauge series for ``(name, labels)``."""
        series = self._family(name, help_text, "gauge")
        key = _label_key(labels)
        if key not in series:
            series[key] = Gauge(key)
        return series[key]

    def histogram(self, name: str, help_text: str,
                  labels: Optional[Mapping[str, str]] = None,
                  buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS
                  ) -> Histogram:
        """Get or create the histogram series for ``(name, labels)``."""
        series = self._family(name, help_text, "histogram")
        key = _label_key(labels)
        if key not in series:
            series[key] = Histogram(key, buckets)
        return series[key]

    def render(self) -> str:
        """Prometheus text exposition of every family, name-sorted."""
        lines: List[str] = []
        for name in sorted(self._families):
            help_text, kind, series = self._families[name]
            lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {kind}")
            for key in sorted(series):
                lines.extend(series[key].samples(name))
        return "\n".join(lines) + "\n" if lines else ""


# ---------------------------------------------------------------------- #
# Service metric families
# ---------------------------------------------------------------------- #
def _records_pool_stats(rows: Iterable[Mapping[str, Any]]
                        ) -> Tuple[Dict[str, int], Dict[str, int]]:
    """Sum per-run pool stats and activation-cache stats across rows."""
    pool_totals: Dict[str, int] = {}
    cache_totals = {"hits": 0, "misses": 0}
    for row in rows:
        telemetry = row.get("telemetry") or {}
        pool = telemetry.get("pool") or {}
        for stat_name, value in pool.items():
            if isinstance(value, (int, float)):
                pool_totals[stat_name] = pool_totals.get(stat_name, 0) + int(value)
        cache = pool.get("cache") or {}
        cache_totals["hits"] += int(cache.get("hits", 0))
        cache_totals["misses"] += int(cache.get("misses", 0))
    return pool_totals, cache_totals


def build_service_registry(scan_rows: Iterable[Mapping[str, Any]],
                           stats: Optional[Mapping[str, Any]] = None
                           ) -> MetricsRegistry:
    """Build the service metric families from record dicts + daemon stats.

    Args:
        scan_rows: ``ScanRecord.to_dict()``-shaped mappings (the persisted
            store rows); ``seconds``, ``detector``, and the optional
            ``telemetry`` block feed histograms, phase counters, and pool
            stats.
        stats: A daemon ``stats.json`` payload.  Its ``metrics`` snapshot
            (``ServiceMetrics.snapshot()``), ``queue_depth``, and ``fleet``
            block (:func:`repro.service.fleet.fleet_snapshot`: live worker
            count, lease counters, per-tenant queue depth) are exported
            when present.

    Returns:
        A registry exposing per-detector scan-latency histograms,
        activation-cache hit counters and ratio, mega-pool counters
        (admissions, in-flight admissions, fused steps, finalist
        fraction), per-phase inversion seconds, and the service counters.
    """
    registry = MetricsRegistry()
    rows = list(scan_rows)

    latency_help = "Wall-clock seconds of computed (non-cached) scans"
    phase_totals: Dict[str, List[float]] = {}
    scan_count = 0
    for row in rows:
        scan_count += 1
        detector = str(row.get("detector", "unknown"))
        seconds = row.get("seconds")
        if isinstance(seconds, (int, float)):
            registry.histogram("repro_scan_latency_seconds", latency_help,
                               labels={"detector": detector}
                               ).observe(float(seconds))
        telemetry = row.get("telemetry") or {}
        for phase_name, entry in (telemetry.get("phases") or {}).items():
            slot = phase_totals.setdefault(phase_name, [0.0, 0])
            slot[0] += float(entry.get("seconds", 0.0))
            slot[1] += int(entry.get("entries", 0))

    registry.gauge("repro_store_scan_records",
                   "Scan records visible in the result store").set(scan_count)

    for phase_name in sorted(phase_totals):
        seconds, entries = phase_totals[phase_name]
        labels = {"phase": phase_name}
        registry.counter("repro_inversion_phase_seconds_total",
                         "Wall-clock seconds attributed to inversion phases",
                         labels=labels).inc(seconds)
        registry.counter("repro_inversion_phase_entries_total",
                         "Times each inversion phase ran",
                         labels=labels).inc(entries)

    pool_totals, record_cache = _records_pool_stats(rows)
    pool_help = {
        "items": ("repro_mega_items_total",
                  "Work items admitted to mega inversion pools"),
        "admissions": ("repro_mega_admissions_total",
                       "Admission rounds performed by mega pools"),
        "in_flight_admissions": ("repro_mega_in_flight_admissions_total",
                                 "Admissions into already-running fused batches"),
        "fused_steps": ("repro_mega_fused_steps_total",
                        "Fused optimizer steps executed by mega pools"),
        "resubmissions": ("repro_mega_resubmissions_total",
                          "Finalist items resubmitted for full-budget runs"),
        "finalists": ("repro_mega_finalists_total",
                      "Coarse-sweep items promoted to finalists"),
        "iterations": ("repro_mega_item_iterations_total",
                       "Per-item optimizer iterations summed over mega items"),
    }
    for stat_name, (metric_name, help_text) in pool_help.items():
        if stat_name in pool_totals:
            registry.counter(metric_name, help_text
                             ).inc(pool_totals[stat_name])
    if pool_totals.get("items"):
        fraction = pool_totals.get("finalists", 0) / pool_totals["items"]
        registry.gauge("repro_mega_finalist_fraction",
                       "Fraction of coarse-sweep items promoted to finalists"
                       ).set(round(fraction, 4))

    snapshot = dict((stats or {}).get("metrics") or {})
    act_hits = int(snapshot.get("activation_cache_hits",
                                record_cache["hits"]))
    act_misses = int(snapshot.get("activation_cache_misses",
                                  record_cache["misses"]))
    registry.counter("repro_activation_cache_hits_total",
                     "Clean-activation cache hits across inversion runs"
                     ).inc(act_hits)
    registry.counter("repro_activation_cache_misses_total",
                     "Clean-activation cache misses across inversion runs"
                     ).inc(act_misses)
    act_total = act_hits + act_misses
    registry.gauge("repro_activation_cache_hit_ratio",
                   "Clean-activation cache hit ratio"
                   ).set(round(act_hits / act_total, 4) if act_total else 0.0)

    service_counters = {
        "scans_served": ("repro_scans_served_total",
                         "Scan requests answered (computed or cached)"),
        "cache_hits": ("repro_verdict_cache_hits_total",
                       "Scan requests answered from the result store"),
        "cache_misses": ("repro_verdict_cache_misses_total",
                         "Scan requests that required computation"),
        "failures": ("repro_scan_failures_total",
                     "Scan jobs that exhausted their retry budget"),
        "retries": ("repro_scan_retries_total",
                    "Scan job retry attempts"),
    }
    for field_name, (metric_name, help_text) in service_counters.items():
        if field_name in snapshot:
            registry.counter(metric_name, help_text
                             ).inc(float(snapshot[field_name]))
    if "cache_hit_ratio" in snapshot:
        registry.gauge("repro_verdict_cache_hit_ratio",
                       "Result-store verdict cache hit ratio"
                       ).set(float(snapshot["cache_hit_ratio"]))
    for pct in ("latency_p50_s", "latency_p95_s"):
        if snapshot.get(pct) is not None:
            registry.gauge(f"repro_scan_{pct}",
                           f"Computed-scan latency {pct[-5:-2]}th percentile "
                           "over the sliding window"
                           ).set(float(snapshot[pct]))
    if stats and "queue_depth" in stats:
        registry.gauge("repro_queue_depth",
                       "Jobs waiting in the daemon queue"
                       ).set(float(stats["queue_depth"]))
    fleet = dict((stats or {}).get("fleet") or {})
    if fleet:
        registry.gauge("repro_fleet_workers_live",
                       "Fleet workers with a live heartbeat"
                       ).set(float(fleet.get("workers_live", 0)))
        registry.gauge("repro_fleet_leases_held",
                       "Fleet jobs currently leased to a worker"
                       ).set(float(fleet.get("leases_held", 0)))
        registry.counter("repro_fleet_leases_expired_total",
                         "Fleet leases that expired without completion"
                         ).inc(float(fleet.get("leases_expired_total", 0)))
        registry.counter("repro_fleet_leases_requeued_total",
                         "Expired fleet leases requeued for another worker"
                         ).inc(float(fleet.get("leases_requeued_total", 0)))
        registry.counter("repro_fleet_jobs_done_total",
                         "Fleet jobs completed successfully"
                         ).inc(float(fleet.get("jobs_done", 0)))
        registry.counter("repro_fleet_jobs_failed_total",
                         "Fleet jobs that spent their retry budget"
                         ).inc(float(fleet.get("jobs_failed", 0)))
        # A drained queue still exports the family (zero for the default
        # tenant) so dashboards never see the series vanish.
        depths = dict(fleet.get("queue_depth") or {}) or {"default": 0}
        for tenant, depth in sorted(depths.items()):
            registry.gauge("repro_fleet_queue_depth",
                           "Fleet jobs queued or leased, by tenant",
                           labels={"tenant": str(tenant)}).set(float(depth))
    return registry


def summarize_telemetry(scan_rows: Iterable[Mapping[str, Any]],
                        stats: Optional[Mapping[str, Any]] = None
                        ) -> Dict[str, Any]:
    """JSON-safe telemetry rollup for ``report`` (``--json`` and tables).

    Args:
        scan_rows: ``ScanRecord.to_dict()``-shaped mappings.
        stats: Optional daemon stats payload (its metrics snapshot wins
            over record-derived activation-cache counters).

    Returns:
        ``{"scans", "per_detector", "phases", "activation_cache",
        "pool"}`` with per-detector count/total/mean seconds.
    """
    rows = list(scan_rows)
    per_detector: Dict[str, Dict[str, float]] = {}
    phase_totals: Dict[str, List[float]] = {}
    for row in rows:
        detector = str(row.get("detector", "unknown"))
        entry = per_detector.setdefault(detector,
                                        {"scans": 0, "seconds_total": 0.0})
        entry["scans"] += 1
        seconds = row.get("seconds")
        if isinstance(seconds, (int, float)):
            entry["seconds_total"] += float(seconds)
        telemetry = row.get("telemetry") or {}
        for phase_name, phase in (telemetry.get("phases") or {}).items():
            slot = phase_totals.setdefault(phase_name, [0.0, 0])
            slot[0] += float(phase.get("seconds", 0.0))
            slot[1] += int(phase.get("entries", 0))
    for entry in per_detector.values():
        entry["seconds_total"] = round(entry["seconds_total"], 4)
        entry["mean_seconds"] = round(
            entry["seconds_total"] / entry["scans"], 4) if entry["scans"] else 0.0

    pool_totals, record_cache = _records_pool_stats(rows)
    snapshot = dict((stats or {}).get("metrics") or {})
    hits = int(snapshot.get("activation_cache_hits", record_cache["hits"]))
    misses = int(snapshot.get("activation_cache_misses",
                              record_cache["misses"]))
    total = hits + misses
    return {
        "scans": len(rows),
        "per_detector": per_detector,
        "phases": {name: {"seconds": round(slot[0], 4), "entries": slot[1]}
                   for name, slot in sorted(phase_totals.items())},
        "activation_cache": {
            "hits": hits,
            "misses": misses,
            "hit_ratio": round(hits / total, 4) if total else 0.0,
        },
        "pool": pool_totals,
    }


# ---------------------------------------------------------------------- #
# Exposition-format validation
# ---------------------------------------------------------------------- #
def parse_prometheus_text(text: str) -> Dict[str, List[Tuple[Dict[str, str],
                                                             float]]]:
    """Parse (and validate) Prometheus text exposition.

    Used by tests and the obs smoke to assert ``metrics.prom`` stays
    well-formed: every sample line must parse, every sample must follow a
    ``# TYPE`` header for its family, and histogram buckets must be
    cumulative and monotonic with ``+Inf`` equal to ``_count``.

    Args:
        text: Full exposition payload.

    Returns:
        Mapping of sample name (including ``_bucket``/``_sum``/``_count``
        suffixes) to ``(labels, value)`` tuples.

    Raises:
        ValueError: On any malformed line or histogram invariant break.
    """
    samples: Dict[str, List[Tuple[Dict[str, str], float]]] = {}
    types: Dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("# HELP "):
            continue
        if line.startswith("# TYPE "):
            parts = line.split(None, 3)
            if len(parts) != 4 or parts[3] not in ("counter", "gauge",
                                                   "histogram", "summary",
                                                   "untyped"):
                raise ValueError(f"malformed TYPE line: {raw!r}")
            types[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            raise ValueError(f"unknown comment line: {raw!r}")
        name, labels, value = _parse_sample(raw)
        base = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[:-len(suffix)] in types:
                base = name[:-len(suffix)]
                break
        if base not in types:
            raise ValueError(f"sample {name} has no # TYPE header")
        samples.setdefault(name, []).append((labels, value))
    _validate_histograms(samples, types)
    return samples


def _parse_sample(line: str) -> Tuple[str, Dict[str, str], float]:
    """Split one exposition sample line into (name, labels, value)."""
    if "{" in line:
        name, rest = line.split("{", 1)
        label_body, _, value_part = rest.rpartition("}")
        labels: Dict[str, str] = {}
        for chunk in filter(None, label_body.split(",")):
            if "=" not in chunk:
                raise ValueError(f"malformed label in line: {line!r}")
            key, val = chunk.split("=", 1)
            if not (val.startswith('"') and val.endswith('"')):
                raise ValueError(f"unquoted label value in line: {line!r}")
            labels[key.strip()] = val[1:-1]
        value_text = value_part.strip()
    else:
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"malformed sample line: {line!r}")
        name, value_text = parts
        labels = {}
    name = name.strip()
    if not name or not name.replace("_", "a").replace(":", "a").isalnum():
        raise ValueError(f"invalid metric name in line: {line!r}")
    try:
        value = float("inf") if value_text == "+Inf" else float(value_text)
    except ValueError as exc:
        raise ValueError(f"non-numeric value in line: {line!r}") from exc
    return name, labels, value


def _validate_histograms(samples: Mapping[str, List[Tuple[Dict[str, str],
                                                          float]]],
                         types: Mapping[str, str]) -> None:
    """Enforce cumulative buckets and ``+Inf`` == ``_count`` per series."""
    for family, kind in types.items():
        if kind != "histogram":
            continue
        series: Dict[_LabelKey, List[Tuple[float, float]]] = {}
        for labels, value in samples.get(f"{family}_bucket", []):
            bound_text = labels.get("le")
            if bound_text is None:
                raise ValueError(f"{family}_bucket sample without le label")
            bound = float("inf") if bound_text == "+Inf" else float(bound_text)
            key = _label_key({k: v for k, v in labels.items() if k != "le"})
            series.setdefault(key, []).append((bound, value))
        counts = {_label_key(labels): value
                  for labels, value in samples.get(f"{family}_count", [])}
        for key, buckets in series.items():
            buckets.sort(key=lambda pair: pair[0])
            last = -1.0
            for bound, value in buckets:
                if value < last:
                    raise ValueError(f"{family} buckets not cumulative")
                last = value
            if not buckets or buckets[-1][0] != float("inf"):
                raise ValueError(f"{family} missing +Inf bucket")
            if key in counts and buckets[-1][1] != counts[key]:
                raise ValueError(f"{family} +Inf bucket != _count")
