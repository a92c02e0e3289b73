"""Backend-independent planning core: failure type, metrics, cache plans.

Everything in this module is pure bookkeeping — no process pools, no child
processes, no fleet files.  Every execution backend
(:mod:`repro.service.backends`, :mod:`repro.service.fleet`) and every entry
point (scheduler, repair driver, watch daemon, HTTP API) shares one
implementation of:

* :class:`JobTimeoutError` — the shared wall-clock/lease failure type;
* :class:`ServiceMetrics` — cumulative service counters plus the bounded
  latency window behind the p50/p95 snapshots;
* :class:`CachePlanner` — the resolve-side cache plan: store lookups and
  in-batch duplicate collapsing, shared by scan batches and repair batches.

The split matters for the fleet: a remote worker process must agree with
the submitter about failure semantics without importing any executor
machinery, and the planning core is that contract.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

from ..obs.trace import TRACER, span as _span

__all__ = ["JobTimeoutError", "ServiceMetrics", "CachePlanner",
           "LATENCY_WINDOW"]

#: Number of recent computed-scan latencies kept for percentile snapshots.
LATENCY_WINDOW = 1024


class JobTimeoutError(RuntimeError):
    """A job exceeded its wall-clock budget (and its retry budget, if any).

    Raised by the pool backend for an attempt it killed at its deadline, and
    by the fleet backend when a job's lease expired past its retry budget —
    the same operational condition: the work did not finish in its bound.
    """


@dataclass
class ServiceMetrics:
    """Cumulative service counters plus scan-latency percentiles.

    The scheduler updates these on every batch; the daemon publishes
    :meth:`snapshot` to its stats endpoint file after each loop iteration.

    Latencies of recent computed scans live in a bounded window: the last
    :data:`LATENCY_WINDOW` of them, oldest evicted first.
    """

    #: Requests answered (cache hits + fresh computations).
    scans_served: int = 0
    #: Requests answered from the result store (incl. in-batch duplicates).
    cache_hits: int = 0
    #: Requests that required a fresh detector run.
    cache_misses: int = 0
    #: Jobs that exhausted their retry budget, plus requests that failed
    #: to resolve (unreadable checkpoint, missing metadata).
    failures: int = 0
    #: Retry attempts performed (not counting first attempts).
    retries: int = 0
    #: Clean-activation cache hits observed across mega scans.
    activation_cache_hits: int = 0
    #: Clean-activation cache misses observed across mega scans.
    activation_cache_misses: int = 0

    def __post_init__(self) -> None:
        """Set up the bounded latency window."""
        self._window: Deque[float] = deque(maxlen=LATENCY_WINDOW)

    @property
    def latencies(self) -> Tuple[float, ...]:
        """Recent computed-scan latencies, oldest first (read-only view)."""
        return tuple(self._window)

    def record_latency(self, seconds: float) -> None:
        """Add one computed-scan latency to the bounded percentile window."""
        self._window.append(float(seconds))

    def record_hit(self) -> None:
        """Count one request served from the store."""
        self.scans_served += 1
        self.cache_hits += 1

    def record_miss(self, seconds: float) -> None:
        """Count one freshly computed request and its latency."""
        self.scans_served += 1
        self.cache_misses += 1
        self.record_latency(seconds)

    def record_activation_cache(self, hits: int, misses: int) -> None:
        """Accumulate clean-activation cache traffic from one mega batch."""
        self.activation_cache_hits += int(hits)
        self.activation_cache_misses += int(misses)

    @property
    def cache_hit_ratio(self) -> float:
        """Hits over served requests (0.0 when nothing was served yet)."""
        return self.cache_hits / self.scans_served if self.scans_served else 0.0

    @property
    def activation_cache_hit_ratio(self) -> float:
        """Activation-cache hits over lookups (0.0 before any lookup)."""
        total = self.activation_cache_hits + self.activation_cache_misses
        return self.activation_cache_hits / total if total else 0.0

    def latency_percentile(self, q: float) -> float:
        """The ``q``-th percentile (0-100) of computed-scan latencies.

        ``numpy.percentile`` over the window (linear interpolation between
        closest ranks); 0.0 before any latency is recorded.
        """
        if not self._window:
            return 0.0
        import numpy as np

        return float(np.percentile(self._window, float(q)))

    def snapshot(self) -> Dict[str, float]:
        """JSON-safe stats payload (the daemon's stats-endpoint schema)."""
        return {
            "scans_served": self.scans_served,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_ratio": round(self.cache_hit_ratio, 4),
            "latency_p50_s": round(self.latency_percentile(50), 4),
            "latency_p95_s": round(self.latency_percentile(95), 4),
            "failures": self.failures,
            "retries": self.retries,
            "activation_cache_hits": self.activation_cache_hits,
            "activation_cache_misses": self.activation_cache_misses,
            "activation_cache_hit_ratio": round(
                self.activation_cache_hit_ratio, 4),
        }


class CachePlanner:
    """The resolve-side half of a batch: store hits, duplicates, misses.

    One planner instance serves one batch.  :meth:`plan` walks the resolved
    items in order and sorts each into *served from the store*, *duplicate
    of an earlier in-batch miss*, or *pending computation*.  Only store
    hits are counted here; misses and duplicates count once the batch
    driver has their computed records in hand.

    Args:
        store: Optional result store (``lookup(key)``-capable); without one
            every item is a miss.
        metrics: The batch driver's cumulative counters (store hits).
        record_type: When given, a stored record only counts as a hit if it
            is an instance of this type — repair lookups must never serve a
            scan record that happens to share a key namespace.
    """

    def __init__(self, store: Any, metrics: ServiceMetrics,
                 record_type: Optional[type] = None) -> None:
        self.store = store
        self.metrics = metrics
        self.record_type = record_type

    def _lookup(self, key: str) -> Any:
        """The stored record for ``key`` that is servable, or ``None``."""
        if self.store is None:
            return None
        cached = self.store.lookup(key)
        if cached is None:
            return None
        if self.record_type is not None and \
                not isinstance(cached, self.record_type):
            return None
        return cached

    def plan(self, resolved: Sequence[Any], roots: Sequence[Any],
             serve: Callable[[Any, Any], Any],
             span_name: Optional[str] = None
             ) -> Tuple[List[Any], List[Tuple[int, Any]]]:
        """Split a resolved batch into served results and pending work.

        Each item's cache lookup runs inside its root span's context (under
        a ``span_name`` span when one is given), so the lookup cost is
        attributed to the request that paid it.

        Args:
            resolved: Resolved items in request order; each must expose a
                ``key`` attribute.
            roots: Per-item root spans (``None`` entries when tracing is
                off); a hit sets ``cache_hit`` on its root.
            serve: ``serve(cached_record, item)`` produces the cache-hit
                copy placed in the results (the batch driver passes
                ``ScanScheduler._served_copy``).
            span_name: Name of the per-item lookup span (``None`` records
                no lookup span — the repair batches' historical shape).

        Returns:
            ``(results, pending)`` — ``results`` has one slot per item
            (``None`` where a computation is still owed, including in-batch
            duplicates that fan out after the pending work completes), and
            ``pending`` lists ``(index, item)`` pairs to execute, one per
            distinct key.
        """
        results: List[Any] = [None] * len(resolved)
        pending: List[Tuple[int, Any]] = []
        pending_keys = set()
        for index, item in enumerate(resolved):
            root = roots[index] if index < len(roots) else None
            with TRACER.context_of(root):
                if span_name:
                    with _span(span_name, store=self.store is not None):
                        cached = self._lookup(item.key)
                else:
                    cached = self._lookup(item.key)
            if cached is not None:
                if root is not None:
                    root.attrs["cache_hit"] = True
                results[index] = serve(cached, item)
                self.metrics.record_hit()
                continue
            if item.key in pending_keys:
                # Duplicate inside this batch: computed once and served as a
                # hit by the driver once that record comes back.
                if root is not None:
                    root.attrs["cache_hit"] = True
                continue
            pending_keys.add(item.key)
            pending.append((index, item))
        return results, pending
