"""Trace spans with cross-process propagation.

A :class:`Span` is one timed operation (fingerprinting, a cache lookup, a
coarse cascade sweep, a daemon child run...).  Spans belong to a *trace* —
one scan or repair request — and form a tree through ``parent_id`` links.

The process-wide :data:`TRACER` is **disabled by default** so library use
(benchmarks, direct detector calls) pays one attribute check per
instrumentation site; the service layer enables it per process.  Crossing a
process boundary works by value, not by shared state: the parent stamps the
``(trace_id, parent_span_id)`` pair onto the resolved job, the worker
re-opens a tracer context under those ids, and its finished spans ride back
on the result record where the parent stitches them into the same tree.

Span dictionaries are persisted as JSON lines (``spans.jsonl`` beside the
result store) via :func:`write_spans` / :func:`read_spans`.

:data:`PROFILER` is the near-zero-cost-when-disabled hook used by
``MegaInversionPool`` (the joint inversion engine): hot loops hoist
``prof = PROFILER if PROFILER.enabled else None`` and pay a single ``None``
check per iteration when profiling is off.  It lives beside :data:`TRACER`
because every scan runs both, so a cache hit never imports the metrics
registry (:mod:`repro.obs.metrics`, which imports it back).
"""

import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "Span",
    "Tracer",
    "TRACER",
    "span",
    "new_trace_id",
    "telemetry_enabled",
    "write_spans",
    "read_spans",
    "Profiler",
    "PROFILER",
]

#: Environment switch for service-layer telemetry (``0``/``false`` disables).
TELEMETRY_ENV = "REPRO_TELEMETRY"

_FALSY = frozenset({"0", "false", "off", "no"})


def telemetry_enabled(default: bool = True) -> bool:
    """True unless ``REPRO_TELEMETRY`` is set to a falsy value.

    Args:
        default: Returned when the variable is unset or empty.
    """
    raw = os.environ.get(TELEMETRY_ENV, "").strip().lower()
    if not raw:
        return default
    return raw not in _FALSY


def new_trace_id() -> str:
    """A fresh 16-hex-char trace identifier."""
    return os.urandom(8).hex()


def _new_span_id() -> str:
    return os.urandom(6).hex()


@dataclass
class Span:
    """One timed operation inside a trace.

    Attributes:
        trace_id: Identifier of the request this span belongs to.
        span_id: Unique identifier of this span.
        parent_id: ``span_id`` of the enclosing span (empty at the root).
        name: Dotted operation name, e.g. ``"mega.coarse_sweep"``.
        start: Wall-clock start time (``time.time()`` epoch seconds).
        duration: Elapsed seconds (0 until :meth:`Tracer.finish`).
        pid: Process id that recorded the span.
        attrs: Small JSON-safe annotation mapping.
    """

    trace_id: str
    span_id: str
    parent_id: str
    name: str
    start: float
    duration: float = 0.0
    pid: int = 0
    attrs: Dict[str, Any] = field(default_factory=dict)
    _t0: float = field(default=0.0, repr=False, compare=False)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe representation (drops the monotonic-clock anchor)."""
        payload = {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": round(self.start, 6),
            "duration": round(self.duration, 6),
            "pid": self.pid,
        }
        if self.attrs:
            payload["attrs"] = self.attrs
        return payload


class _NullSpan:
    """Shared no-op context manager returned when tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: Any) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class Tracer:
    """Process-wide span recorder with a thread-local context stack.

    All entry points short-circuit while :attr:`enabled` is False, and
    :func:`span` returns a shared null context manager, so instrumentation
    left in hot paths costs one attribute check.  Forked children inherit
    the parent's enabled flag and buffer; :meth:`check_fork` detects the
    pid change and resets to disabled so workers adopt traces explicitly.
    """

    def __init__(self) -> None:
        self.enabled = False
        self._pid: Optional[int] = None
        self._buffer: List[Dict[str, Any]] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def enable(self) -> None:
        """Turn span recording on for this process."""
        self.enabled = True
        self._pid = os.getpid()

    def disable(self) -> None:
        """Turn span recording off (buffered spans are kept)."""
        self.enabled = False

    def reset(self) -> None:
        """Disable and drop all buffered spans and context state."""
        self.enabled = False
        self._pid = None
        with self._lock:
            self._buffer = []
        self._local = threading.local()

    def check_fork(self) -> None:
        """Reset state inherited across ``fork``.

        A forked worker starts with the parent's enabled flag and span
        buffer; recording into them would duplicate or strand spans, so a
        pid mismatch resets the tracer to a clean disabled state and the
        worker re-enables it for the trace it was handed.
        """
        if self._pid is not None and self._pid != os.getpid():
            self.reset()

    # ------------------------------------------------------------------ #
    # Context stack
    # ------------------------------------------------------------------ #
    def _stack(self) -> List[Tuple[str, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def current(self) -> Tuple[str, str]:
        """The active ``(trace_id, span_id)`` pair, or ``("", "")``."""
        stack = self._stack()
        return stack[-1] if stack else ("", "")

    @contextmanager
    def context(self, trace_id: str, parent_span_id: str = "") -> Iterator[None]:
        """Adopt ``trace_id`` so nested spans parent under ``parent_span_id``.

        A no-op when the tracer is disabled or ``trace_id`` is empty.
        """
        if not self.enabled or not trace_id:
            yield
            return
        stack = self._stack()
        stack.append((trace_id, parent_span_id))
        try:
            yield
        finally:
            stack.pop()

    def context_of(self, root: Optional[Span]):
        """:meth:`context` keyed off an open span (null context for None)."""
        if root is None:
            return _NULL_SPAN
        return self.context(root.trace_id, root.span_id)

    # ------------------------------------------------------------------ #
    # Span creation
    # ------------------------------------------------------------------ #
    def begin(self, name: str, trace_id: str = "", parent_id: str = "",
              **attrs: Any) -> Optional[Span]:
        """Open a span manually; pair with :meth:`finish`.

        Falls back to the active context (or a fresh trace) when
        ``trace_id`` is not given.  Returns None while disabled.
        """
        if not self.enabled:
            return None
        if not trace_id:
            trace_id, parent_id = self.current()
            if not trace_id:
                trace_id = new_trace_id()
        return Span(trace_id=trace_id, span_id=_new_span_id(),
                    parent_id=parent_id, name=name, start=time.time(),
                    pid=os.getpid(), attrs=dict(attrs) if attrs else {},
                    _t0=time.perf_counter())

    def finish(self, span_obj: Optional[Span]) -> None:
        """Close a span from :meth:`begin` and buffer it (None is a no-op)."""
        if span_obj is None:
            return
        span_obj.duration = time.perf_counter() - span_obj._t0
        with self._lock:
            self._buffer.append(span_obj.to_dict())

    @contextmanager
    def _timed_span(self, name: str, attrs: Dict[str, Any]) -> Iterator[Span]:
        trace_id, parent_id = self.current()
        if not trace_id:
            trace_id = new_trace_id()
        span_obj = Span(trace_id=trace_id, span_id=_new_span_id(),
                        parent_id=parent_id, name=name, start=time.time(),
                        pid=os.getpid(), attrs=attrs, _t0=time.perf_counter())
        stack = self._stack()
        stack.append((trace_id, span_obj.span_id))
        try:
            yield span_obj
        finally:
            stack.pop()
            span_obj.duration = time.perf_counter() - span_obj._t0
            with self._lock:
                self._buffer.append(span_obj.to_dict())

    def span(self, name: str, **attrs: Any):
        """Context manager timing ``name`` under the active context.

        Yields the live :class:`Span` (annotate via ``span.attrs``) when
        enabled, or None through the shared null context when disabled.
        """
        if not self.enabled:
            return _NULL_SPAN
        return self._timed_span(name, dict(attrs) if attrs else {})

    # ------------------------------------------------------------------ #
    # Buffer transport
    # ------------------------------------------------------------------ #
    def add(self, spans: Optional[List[Dict[str, Any]]]) -> None:
        """Stitch already-finished span dicts (e.g. from a worker) in."""
        if not spans:
            return
        with self._lock:
            self._buffer.extend(spans)

    def drain(self) -> List[Dict[str, Any]]:
        """Remove and return every buffered span dict."""
        with self._lock:
            drained, self._buffer = self._buffer, []
        return drained

    def flush(self, path: str) -> int:
        """Drain the buffer and append it to the JSONL file at ``path``.

        Returns:
            The number of spans written.
        """
        spans = self.drain()
        if spans:
            write_spans(path, spans)
        return len(spans)


#: The process-wide tracer used by every instrumentation site.
TRACER = Tracer()


def span(name: str, **attrs: Any):
    """Module-level shorthand for ``TRACER.span`` with the disabled fast path."""
    tracer = TRACER
    if not tracer.enabled:
        return _NULL_SPAN
    return tracer._timed_span(name, dict(attrs) if attrs else {})


# ---------------------------------------------------------------------- #
# Hot-path profiler
# ---------------------------------------------------------------------- #
class _NullPhase:
    """Shared no-op context manager for disabled profiling."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: Any) -> bool:
        return False


_NULL_PHASE = _NullPhase()


class Profiler:
    """Per-phase wall-time and count accumulator for inversion hot paths.

    Disabled by default; every recording method returns immediately (or a
    shared null context) while :attr:`enabled` is False.  Hot loops hoist
    ``prof = PROFILER if PROFILER.enabled else None`` before iterating so
    the per-iteration cost of disabled profiling is one ``None`` check.
    """

    def __init__(self) -> None:
        self.enabled = False
        self._pid: Optional[int] = None
        self._lock = threading.Lock()
        #: phase name -> [seconds, entries]
        self._phases: Dict[str, List[float]] = {}
        self._counts: Dict[str, int] = {}

    def enable(self) -> None:
        """Turn phase recording on for this process."""
        self.enabled = True
        self._pid = os.getpid()

    def disable(self) -> None:
        """Turn phase recording off (accumulated data is kept)."""
        self.enabled = False

    def reset(self) -> None:
        """Drop all accumulated phases and counts."""
        with self._lock:
            self._phases = {}
            self._counts = {}

    def check_fork(self) -> None:
        """Reset and disable state inherited across ``fork`` (pid change)."""
        if self._pid is not None and self._pid != os.getpid():
            self.enabled = False
            self._pid = None
            self.reset()

    def add_phase(self, name: str, seconds: float, entries: int = 1) -> None:
        """Accumulate ``seconds`` of wall time under phase ``name``."""
        if not self.enabled:
            return
        with self._lock:
            slot = self._phases.get(name)
            if slot is None:
                self._phases[name] = [float(seconds), int(entries)]
            else:
                slot[0] += float(seconds)
                slot[1] += int(entries)

    def add_count(self, name: str, amount: int = 1) -> None:
        """Accumulate an event count (e.g. optimizer iterations)."""
        if not self.enabled:
            return
        with self._lock:
            self._counts[name] = self._counts.get(name, 0) + int(amount)

    def phase(self, name: str):
        """Context manager timing a phase (shared null when disabled)."""
        if not self.enabled:
            return _NULL_PHASE
        return self._timed(name)

    @contextmanager
    def _timed(self, name: str) -> Iterator[None]:
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.add_phase(name, time.perf_counter() - t0)

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe view: ``{"phases": {name: {"seconds", "entries"}},
        "counts": {...}}`` (empty dict when nothing was recorded)."""
        with self._lock:
            phases = {name: {"seconds": round(slot[0], 6), "entries": slot[1]}
                      for name, slot in self._phases.items()}
            counts = dict(self._counts)
        if not phases and not counts:
            return {}
        return {"phases": phases, "counts": counts}


#: The process-wide profiler used by the inversion engines.
PROFILER = Profiler()


def write_spans(path: str, spans: List[Dict[str, Any]]) -> None:
    """Append span dicts to a JSONL file with one ``O_APPEND`` write.

    A single ``write`` of pre-joined lines keeps concurrent writers (daemon
    plus CLI) from tearing each other's lines, mirroring the store's
    append discipline.
    """
    if not spans:
        return
    directory = os.path.dirname(os.path.abspath(path))
    if directory:
        os.makedirs(directory, exist_ok=True)
    payload = "".join(
        json.dumps(entry, sort_keys=True, separators=(",", ":")) + "\n"
        for entry in spans
    ).encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        os.write(fd, payload)
    finally:
        os.close(fd)


def read_spans(path: str, trace_id: Optional[str] = None
               ) -> List[Dict[str, Any]]:
    """Load span dicts from a JSONL file, optionally one trace only.

    Torn or non-JSON lines are skipped, matching the store's tolerance
    for interrupted appends.

    Args:
        path: The ``spans.jsonl`` file.
        trace_id: When given, keep only spans of that trace.

    Returns:
        Span dicts in file order (empty when the file does not exist).
    """
    if not os.path.exists(path):
        return []
    spans: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                continue
            if not isinstance(entry, dict):
                continue
            if trace_id is not None and entry.get("trace_id") != trace_id:
                continue
            spans.append(entry)
    return spans
