"""HTTP front end for the scanning service: submit, poll, fetch, observe.

``python -m repro serve <store>`` boots a stdlib
:class:`~http.server.ThreadingHTTPServer` (no third-party dependencies)
over the existing scheduler + store stack:

* ``POST /v1/scans`` / ``POST /v1/repairs`` — enqueue a job onto the
  server's shared multi-tenant :class:`queue.PriorityQueue`
  (``priority`` in the payload: lower runs first, FIFO within a priority;
  ``tenant`` labels the job).  Scan payloads may carry a ``strategy``
  (``fastest|cheapest|thorough``) to run the
  :mod:`~repro.service.routing` triage plan instead of a single detector.
* ``GET /v1/jobs/<id>`` — job status (``queued/running/done/failed``)
  with the job's trace id and, once failed, its error.
* ``GET /v1/jobs/<id>/result`` — the full result payload: record JSON
  including the telemetry block, plus the triage ``cost_breakdown`` for
  routed scans.
* ``GET /v1/traces/<trace_id>`` — the stitched span tree of one request,
  read from the store's ``spans.jsonl`` sidecar.
* ``GET /metrics`` — Prometheus text exposition:
  :func:`~repro.obs.metrics.build_service_registry` over a fresh store
  replay, concatenated with the API's own ``repro_http_*`` /
  ``repro_triage_*`` families.
* ``GET /healthz`` — liveness probe (used by the smoke script).

**Connections.**  Sockets run with ``TCP_NODELAY``: a response goes out as
a header write and a body write, and with Nagle's algorithm on, the body
would wait for the client's delayed ACK of the headers (~40 ms per
exchange on a keep-alive connection).  The handler reads every request's
declared ``Content-Length`` body before it answers, whatever the route or
status, so the next request on the connection starts at a request line;
a body it cannot delimit (a malformed ``Content-Length``, or any
``Transfer-Encoding``) is answered ``400`` and the connection closed, and
one declared longer than ``MAX_BODY_BYTES`` (1 MiB) ``413`` the same way,
before any of it is read (a client still sending such a body may see the
connection reset instead of the ``413``).

**Threading model.**  Handler threads only parse payloads, mutate the
job table under its lock, and put ``(priority, sequence, job_id)`` on the
queue (the sequence number, drawn under the same lock, keeps equal
priorities first in, first out); one dispatcher thread takes jobs off it
and drives the (single-threaded) :class:`ScanScheduler`, so
store writes stay single-writer while N clients submit and poll
concurrently; retries are the scheduler's (``job_retries``).  ``/metrics``
never touches the dispatcher's store handle: it replays the store from
disk per request.

**Tracing.**  Every submitted job is assigned a trace id up front (it is
returned by the submit call); the dispatcher roots an ``api.job`` span
under that id and runs the scheduler inside its context, so the whole
escalation plan — job root, per-stage ``scan.request`` roots, worker
spans — lands in ``spans.jsonl`` as one stitched tree retrievable over
``GET /v1/traces/<trace_id>``.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from queue import Empty, PriorityQueue
from typing import Any, Dict, Optional, Tuple
from urllib.parse import urlparse
from uuid import uuid4

from ..obs.logging import get_logger
from ..obs.metrics import MetricsRegistry, build_service_registry
from ..obs.trace import TRACER, new_trace_id, read_spans, write_spans
from .fleet import fleet_snapshot
from .records import ScanRequest
from .repair import RepairRequest, run_repairs
from .routing import STRATEGIES, RoutingPolicy, route_scan
from .scheduler import ScanScheduler, _utc_now, load_inversion_stack
from .store import SPANS_NAME, open_store, sidecar_path

__all__ = ["ApiJob", "ApiServer", "DEFAULT_TENANT", "MAX_BODY_BYTES"]

_LOG = get_logger("repro.service.api")

#: Tenant label applied when a submit payload does not name one.
DEFAULT_TENANT = "default"

#: HTTP-request latency buckets: handlers answer in ms, scans in seconds.
_HTTP_LATENCY_BUCKETS = (0.005, 0.025, 0.1, 0.5, 1.0, 2.5, 10.0, 60.0)


@dataclass
class ApiJob:
    """One submitted API job: its request, scheduling state, and outcome."""

    #: Server-assigned job identifier (``job-<12 hex>``).
    job_id: str
    #: ``"scan"`` or ``"repair"``.
    kind: str
    #: Tenant label from the submit payload (isolation is by job id —
    #: ids are unguessable — the label exists for accounting and audits).
    tenant: str
    #: Queue priority (lower runs first, FIFO within a priority).
    priority: int
    #: Trace id assigned at submit time; the whole job runs under it.
    trace_id: str
    #: Parsed request (:class:`ScanRequest` or :class:`RepairRequest`).
    request: Any
    #: Triage strategy for routed scans (``None`` = plain single-detector).
    strategy: Optional[str] = None
    #: ``queued`` -> ``running`` -> ``done`` | ``failed``.
    status: str = "queued"
    #: Result payload once ``done`` (record dict, or triage dict).
    result: Optional[Dict[str, Any]] = None
    #: Error message once ``failed``.
    error: Optional[str] = None
    created_at: str = ""
    started_at: Optional[str] = None
    finished_at: Optional[str] = None

    def status_dict(self) -> Dict[str, Any]:
        """The ``GET /v1/jobs/<id>`` payload (everything but the result)."""
        return {
            "job_id": self.job_id,
            "kind": self.kind,
            "tenant": self.tenant,
            "priority": self.priority,
            "status": self.status,
            "strategy": self.strategy,
            "trace_id": self.trace_id,
            "error": self.error,
            "created_at": self.created_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }


#: Largest request body the server reads.  A submit payload is a few
#: hundred bytes; a larger declared length is refused before any is read.
MAX_BODY_BYTES = 1 << 20


class _BadRequest(ValueError):
    """A request the server must refuse: ``400`` unless ``code`` says else."""

    def __init__(self, message: str, code: int = 400) -> None:
        super().__init__(message)
        self.code = code


def _priority(payload: Dict[str, Any]) -> int:
    """A submit body's queue ``priority`` (default 0) as an integer."""
    try:
        return int(payload.get("priority", 0))
    except (TypeError, ValueError, OverflowError) as error:
        raise _BadRequest(f"'priority' must be an integer: {error}") from error


def _parse_scan_submit(payload: Dict[str, Any]
                       ) -> Tuple[ScanRequest, Optional[str], int]:
    """Parse a ``POST /v1/scans`` body into (request, strategy, priority)."""
    priority = _priority(payload)
    strategy = payload.get("strategy")
    if strategy is not None:
        strategy = str(strategy).lower()
        if strategy not in STRATEGIES:
            raise _BadRequest(f"unknown strategy '{strategy}' "
                              f"(available: {', '.join(STRATEGIES)})")
    if not payload.get("checkpoint"):
        raise _BadRequest("scan payload needs a 'checkpoint' path")
    try:
        request = ScanRequest.from_dict(payload)
    except (TypeError, ValueError) as error:
        raise _BadRequest(str(error)) from error
    return request, strategy, priority


def _parse_repair_submit(payload: Dict[str, Any]
                         ) -> Tuple[RepairRequest, int]:
    """Parse a ``POST /v1/repairs`` body (nested ``scan`` or flat)."""
    priority = _priority(payload)
    body = dict(payload)
    if "scan" not in body:
        if not body.get("checkpoint"):
            raise _BadRequest("repair payload needs a nested 'scan' request "
                              "or a top-level 'checkpoint' path")
        body["scan"] = {k: v for k, v in body.items()}
    try:
        return RepairRequest.from_dict(body), priority
    except (TypeError, KeyError, ValueError) as error:
        raise _BadRequest(str(error)) from error


class ApiServer:
    """The scan/repair HTTP service: queue, dispatcher, and HTTP listener.

    Args:
        store_path: Result store (any :func:`~repro.service.open_store`
            layout); scans/repairs are cached there exactly as the CLI's.
        host: Bind address (default loopback).
        port: Bind port; ``0`` picks an ephemeral port (see :attr:`port`).
        workers: Scheduler pool size (``0``/``1`` runs scans inline on the
            dispatcher thread).
        job_retries: The scheduler's retry budget per failed job attempt
            (the fleet spends it through its lease tables).
        telemetry: Tracing/profiling toggle (``None`` follows
            ``REPRO_TELEMETRY``).
        backend: Execution backend spec (``inline`` / ``pool`` / ``fleet``)
            forwarded to the scheduler; ``None`` keeps the historical
            worker-count heuristic.  With ``fleet``, the dispatcher labels
            each batch with the submitting job's tenant so the shared queue
            tracks per-tenant depth.
    """

    def __init__(self, store_path: str, host: str = "127.0.0.1",
                 port: int = 0, workers: int = 0, job_retries: int = 0,
                 telemetry: Optional[bool] = None,
                 backend: Optional[str] = None) -> None:
        self.store_path = str(store_path)
        self.span_sink = sidecar_path(self.store_path, SPANS_NAME)
        store = open_store(self.store_path)
        # A long-lived server replays every shard once and imports what a
        # miss runs, here, so that no request pays for a shard's first read
        # or for the first miss's imports.
        len(store)
        load_inversion_stack()
        self.scheduler = ScanScheduler(
            store=store, workers=workers,
            job_retries=job_retries, telemetry=telemetry,
            span_sink=self.span_sink, backend=backend)
        #: ``(priority, sequence, job_id)`` of every job not yet dispatched.
        self.queue: PriorityQueue[Tuple[int, int, str]] = PriorityQueue()
        self._jobs: Dict[str, ApiJob] = {}
        self._jobs_lock = threading.Lock()
        #: Submit counter (under ``_jobs_lock``): FIFO within a priority.
        self._sequence = 0
        self._stop = threading.Event()
        self._dispatcher: Optional[threading.Thread] = None
        self._listener: Optional[threading.Thread] = None
        self._registry = MetricsRegistry()
        self._registry_lock = threading.Lock()
        self._server = ThreadingHTTPServer((host, int(port)), _Handler)
        self._server.daemon_threads = True
        self._server.api = self  # type: ignore[attr-defined]

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def port(self) -> int:
        """The bound TCP port (resolved when ``port=0`` was requested)."""
        return int(self._server.server_address[1])

    @property
    def host(self) -> str:
        """The bound address."""
        return str(self._server.server_address[0])

    def start(self, dispatch: bool = True) -> "ApiServer":
        """Start the dispatcher and HTTP listener threads; returns self.

        Args:
            dispatch: Start the job dispatcher (pass False to accept and
                queue submissions without executing them — useful for
                tests and for staging a queue before a maintenance window).
        """
        if dispatch:
            self._dispatcher = threading.Thread(target=self._dispatch_loop,
                                                name="api-dispatcher",
                                                daemon=True)
            self._dispatcher.start()
        self._listener = threading.Thread(target=self._server.serve_forever,
                                          name="api-listener", daemon=True)
        self._listener.start()
        _LOG.info("serving on http://%s:%d (store: %s)", self.host,
                  self.port, self.store_path)
        return self

    def serve_forever(self) -> None:
        """Blocking variant of :meth:`start` (the CLI entry point)."""
        self.start()
        try:
            while not self._stop.is_set():
                time.sleep(0.5)
        except KeyboardInterrupt:
            _LOG.info("interrupt received; draining.")
        finally:
            self.close(drain=True)

    def close(self, drain: bool = False) -> None:
        """Stop accepting requests and shut the dispatcher down.

        Args:
            drain: Finish every queued job before exiting while a
                dispatcher runs (the in-flight job always completes either
                way); without one, queued jobs stay queued.
        """
        # ``shutdown()`` waits for a ``serve_forever`` loop, so it would
        # block forever on a server whose listener never started.
        if self._listener is not None:
            self._server.shutdown()
        self._server.server_close()
        if drain:
            while self._dispatcher is not None and \
                    self._dispatcher.is_alive() and not self.queue.empty():
                time.sleep(0.05)
        self._stop.set()
        if self._dispatcher is not None:
            self._dispatcher.join(timeout=60.0)

    # ------------------------------------------------------------------ #
    # Job table
    # ------------------------------------------------------------------ #
    def submit(self, kind: str, request: Any, tenant: str = DEFAULT_TENANT,
               priority: int = 0, strategy: Optional[str] = None) -> ApiJob:
        """Register a job and enqueue it; returns the queued :class:`ApiJob`."""
        job = ApiJob(job_id=f"job-{uuid4().hex[:12]}", kind=kind,
                     tenant=str(tenant), priority=int(priority),
                     trace_id=new_trace_id(), request=request,
                     strategy=strategy, created_at=_utc_now())
        with self._jobs_lock:
            self._jobs[job.job_id] = job
            self._sequence += 1
            entry = (job.priority, self._sequence, job.job_id)
        self.queue.put(entry)
        with self._registry_lock:
            self._registry.counter(
                "repro_http_jobs_submitted_total",
                "Jobs accepted over the HTTP API",
                labels={"kind": kind}).inc()
        return job

    def job(self, job_id: str) -> Optional[ApiJob]:
        """Look one job up by id (``None`` when unknown)."""
        with self._jobs_lock:
            return self._jobs.get(job_id)

    # ------------------------------------------------------------------ #
    # Dispatcher (the only thread that touches the scheduler/store)
    # ------------------------------------------------------------------ #
    def _dispatch_loop(self) -> None:
        """Take queued jobs and execute them serially until :meth:`close`."""
        while not self._stop.is_set():
            try:
                _, _, job_id = self.queue.get(timeout=0.2)
            except Empty:
                continue
            job = self.job(job_id)
            if job is None:
                continue
            with self._jobs_lock:
                job.status = "running"
                job.started_at = _utc_now()
            try:
                result = self._execute(job)
            except Exception as error:  # noqa: BLE001  # repro-lint: disable=exception-hygiene
                # Any job failure (bad checkpoint, detector crash) must be
                # reported to the polling client, never kill the dispatcher.
                _LOG.warning("job %s failed: %s", job.job_id, error)
                with self._jobs_lock:
                    job.status = "failed"
                    job.error = f"{type(error).__name__}: {error}"
                    job.finished_at = _utc_now()
                continue
            with self._jobs_lock:
                job.status = "done"
                job.result = result
                job.finished_at = _utc_now()

    def _execute(self, job: ApiJob) -> Dict[str, Any]:
        """Run one job under its trace and return the result payload."""
        tracing = self.scheduler.telemetry
        root = None
        if tracing:
            TRACER.check_fork()
            TRACER.enable()
            root = TRACER.begin("api.job", trace_id=job.trace_id,
                                kind=job.kind, job_id=job.job_id,
                                tenant=job.tenant)
        # The fleet backend tags submitted jobs with a tenant so the shared
        # queue can report per-tenant depth; only the (single) dispatcher
        # thread touches the scheduler, so this mutation cannot race.
        if hasattr(self.scheduler.backend, "tenant"):
            self.scheduler.backend.tenant = job.tenant
        try:
            with TRACER.context_of(root):
                if job.kind == "repair":
                    record = run_repairs(self.scheduler, [job.request])[0]
                    return record.to_dict() | {"cache_hit": record.cache_hit}
                if job.strategy is not None:
                    triage = route_scan(self.scheduler, job.request,
                                        RoutingPolicy(strategy=job.strategy))
                    self._count_triage(triage.cost_breakdown)
                    return triage.to_dict()
                record = self.scheduler.scan_one(job.request)
                return record.to_dict() | {"cache_hit": record.cache_hit}
        finally:
            if root is not None:
                TRACER.finish(root)
                write_spans(self.span_sink, TRACER.drain())

    def _count_triage(self, breakdown: Dict[str, Any]) -> None:
        """Export one triage cost breakdown into the API metric families."""
        with self._registry_lock:
            strategy = {"strategy": str(breakdown.get("strategy"))}
            self._registry.counter(
                "repro_triage_requests_total",
                "Strategy-routed triage requests executed",
                labels=strategy).inc()
            if breakdown.get("escalated"):
                self._registry.counter(
                    "repro_triage_escalations_total",
                    "Triage requests that escalated past the probe detector",
                    labels=strategy).inc()
            for stage in breakdown.get("stages", []):
                labels = {"detector": str(stage.get("detector"))}
                self._registry.counter(
                    "repro_triage_stages_run_total",
                    "Triage stages executed, by detector",
                    labels=labels).inc()
                self._registry.counter(
                    "repro_triage_stage_seconds_total",
                    "Fresh detector-seconds paid by triage stages",
                    labels=labels).inc(float(stage.get("seconds", 0.0)))
            for stage in breakdown.get("skipped", []):
                self._registry.counter(
                    "repro_triage_stages_skipped_total",
                    "Triage stages skipped by the escalation policy",
                    labels={"detector": str(stage.get("detector"))}).inc()

    # ------------------------------------------------------------------ #
    # Observability endpoints
    # ------------------------------------------------------------------ #
    def observe_http(self, method: str, route: str, code: int,
                     seconds: float) -> None:
        """Record one handled HTTP request into the API metric families."""
        with self._registry_lock:
            self._registry.counter(
                "repro_http_requests_total",
                "HTTP requests handled by the scan API",
                labels={"method": method, "route": route,
                        "code": str(code)}).inc()
            self._registry.histogram(
                "repro_http_request_latency_seconds",
                "Wall-clock seconds spent handling API requests",
                labels={"route": route},
                buckets=_HTTP_LATENCY_BUCKETS).observe(seconds)

    def metrics_text(self) -> str:
        """The full ``/metrics`` exposition: store families + API families.

        The store families are rebuilt from a *fresh* store replay so this
        (handler-thread) read never races the dispatcher's store handle;
        family names are disjoint (``repro_http_*`` / ``repro_triage_*``
        vs the service's ``repro_*``), so the concatenation stays a valid
        single exposition.
        """
        rows = [record.to_dict()
                for record in open_store(self.store_path).scan_records()]
        stats = {"metrics": self.scheduler.metrics.snapshot(),
                 "queue_depth": self.queue.qsize(),
                 "backend": self.scheduler.backend.name}
        fleet = fleet_snapshot(self.store_path)
        if fleet is not None:
            stats["fleet"] = fleet
        service = build_service_registry(rows, stats).render()
        with self._registry_lock:
            self._registry.gauge(
                "repro_http_jobs",
                "Jobs known to the API, by status",
                labels={"status": "queued"}).set(self._status_count("queued"))
            self._registry.gauge(
                "repro_http_jobs",
                "Jobs known to the API, by status",
                labels={"status": "running"}).set(self._status_count("running"))
            api = self._registry.render()
        return service + api

    def _status_count(self, status: str) -> int:
        with self._jobs_lock:
            return sum(1 for job in self._jobs.values()
                       if job.status == status)

    def trace_spans(self, trace_id: str) -> list:
        """Spans recorded for one trace (empty when none exist yet)."""
        return read_spans(self.span_sink, trace_id=trace_id)


class _Handler(BaseHTTPRequestHandler):
    """Routes HTTP verbs/paths onto the owning :class:`ApiServer`."""

    protocol_version = "HTTP/1.1"
    #: ``TCP_NODELAY`` on each accepted socket (``StreamRequestHandler``):
    #: a body written right after its headers leaves at once instead of
    #: waiting for the client's delayed ACK of the headers.
    disable_nagle_algorithm = True

    @property
    def api(self) -> ApiServer:
        """The :class:`ApiServer` this handler serves."""
        return self.server.api  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        """Route the default stderr access log through the repro logger."""
        _LOG.debug("%s %s", self.address_string(), format % args)

    # -------------------------------------------------------------- #
    # Verb entry points
    # -------------------------------------------------------------- #
    def do_GET(self) -> None:  # noqa: N802
        """Dispatch GET: status, result, trace, metrics, health."""
        self._handle("GET")

    def do_POST(self) -> None:  # noqa: N802
        """Dispatch POST: scan and repair submission."""
        self._handle("POST")

    def do_PUT(self) -> None:  # noqa: N802
        """PUT is never valid here: 405 on known routes, 404 otherwise."""
        self._handle("PUT")

    def do_DELETE(self) -> None:  # noqa: N802
        """DELETE is never valid here: 405 on known routes, 404 otherwise."""
        self._handle("DELETE")

    # -------------------------------------------------------------- #
    # Routing
    # -------------------------------------------------------------- #
    def _handle(self, method: str) -> None:
        """Route one request, timing it into the HTTP metric families.

        The declared body is read first, whatever the route, so no answer
        leaves body bytes on a keep-alive connection; a body that cannot be
        delimited is refused with ``400``, one declared longer than
        :data:`MAX_BODY_BYTES` with ``413``, and the connection closed.
        """
        path = urlparse(self.path).path.rstrip("/") or "/"
        started = time.perf_counter()
        try:
            self._body = self._read_body()
        except _BadRequest as error:
            route, code = path, self._send_error(error.code, str(error),
                                                 close=True)
        else:
            route, code = self._route(method, path)
        self.api.observe_http(method, route, code,
                              time.perf_counter() - started)

    def _route(self, method: str, path: str) -> Tuple[str, int]:
        """Dispatch to the endpoint; returns (route label, status code)."""
        if path == "/healthz":
            if method != "GET":
                return "/healthz", self._send_error(405, "use GET")
            return "/healthz", self._send_json(200, {"status": "ok"})
        if path == "/metrics":
            if method != "GET":
                return "/metrics", self._send_error(405, "use GET")
            return "/metrics", self._send_text(200, self.api.metrics_text())
        if path == "/v1/scans":
            if method != "POST":
                return "/v1/scans", self._send_error(405, "use POST")
            return "/v1/scans", self._post_scan()
        if path == "/v1/repairs":
            if method != "POST":
                return "/v1/repairs", self._send_error(405, "use POST")
            return "/v1/repairs", self._post_repair()
        if path.startswith("/v1/traces/"):
            trace_id = path[len("/v1/traces/"):]
            if method != "GET":
                return "/v1/traces/{trace_id}", self._send_error(405,
                                                                 "use GET")
            return "/v1/traces/{trace_id}", self._get_trace(trace_id)
        if path.startswith("/v1/jobs/"):
            tail = path[len("/v1/jobs/"):]
            if tail.endswith("/result"):
                route = "/v1/jobs/{id}/result"
                job_id = tail[:-len("/result")]
                if method != "GET":
                    return route, self._send_error(405, "use GET")
                return route, self._get_result(job_id)
            route = "/v1/jobs/{id}"
            if method != "GET":
                return route, self._send_error(405, "use GET")
            return route, self._get_job(tail)
        return path, self._send_error(404, f"no such route: {path}")

    # -------------------------------------------------------------- #
    # Endpoints
    # -------------------------------------------------------------- #
    def _post_scan(self) -> int:
        try:
            payload = self._read_json()
            request, strategy, priority = _parse_scan_submit(payload)
        except _BadRequest as error:
            return self._send_error(400, str(error))
        job = self.api.submit(
            "scan", request, tenant=str(payload.get("tenant",
                                                    DEFAULT_TENANT)),
            priority=priority, strategy=strategy)
        return self._send_json(202, job.status_dict())

    def _post_repair(self) -> int:
        try:
            payload = self._read_json()
            request, priority = _parse_repair_submit(payload)
        except _BadRequest as error:
            return self._send_error(400, str(error))
        job = self.api.submit(
            "repair", request, tenant=str(payload.get("tenant",
                                                      DEFAULT_TENANT)),
            priority=priority)
        return self._send_json(202, job.status_dict())

    def _get_job(self, job_id: str) -> int:
        job = self.api.job(job_id)
        if job is None:
            return self._send_error(404, f"unknown job '{job_id}'")
        return self._send_json(200, job.status_dict())

    def _get_result(self, job_id: str) -> int:
        job = self.api.job(job_id)
        if job is None:
            return self._send_error(404, f"unknown job '{job_id}'")
        if job.status == "failed":
            return self._send_json(200, job.status_dict())
        if job.status != "done" or job.result is None:
            return self._send_error(409, f"job '{job_id}' is {job.status}; "
                                         "poll /v1/jobs/<id> until done")
        return self._send_json(200, job.status_dict() | {"result": job.result})

    def _get_trace(self, trace_id: str) -> int:
        if not trace_id:
            return self._send_error(404, "no trace id given")
        spans = self.api.trace_spans(trace_id)
        if not spans:
            return self._send_error(404, f"no spans recorded for trace "
                                         f"'{trace_id}'")
        return self._send_json(200, {"trace_id": trace_id, "spans": spans})

    # -------------------------------------------------------------- #
    # Request and response plumbing
    # -------------------------------------------------------------- #
    def _read_body(self) -> bytes:
        """The request's declared body: ``Content-Length`` bytes, or none.

        Raises:
            _BadRequest: the body cannot be delimited (a ``Content-Length``
                that is not a non-negative integer, or a
                ``Transfer-Encoding`` body), or, with code ``413``, its
                declared length exceeds :data:`MAX_BODY_BYTES`.
        """
        if "Transfer-Encoding" in self.headers:
            raise _BadRequest("Transfer-Encoding bodies are not supported; "
                              "send a Content-Length")
        declared = self.headers.get("Content-Length", "0").strip()
        if not (declared.isascii() and declared.isdigit()):
            raise _BadRequest(f"invalid Content-Length: {declared!r}")
        # Compare digit counts first: int() refuses very long digit strings.
        digits = declared.lstrip("0") or "0"
        if (len(digits) > len(str(MAX_BODY_BYTES))
                or int(digits) > MAX_BODY_BYTES):
            raise _BadRequest(f"request body of {digits} bytes exceeds the "
                              f"{MAX_BODY_BYTES}-byte limit", code=413)
        return self.rfile.read(int(digits))

    def _read_json(self) -> Dict[str, Any]:
        """The request body parsed as a JSON object.

        Raises:
            _BadRequest: the body is empty, not JSON, or not an object.
        """
        if not self._body:
            raise _BadRequest("empty request body")
        try:
            payload = json.loads(self._body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise _BadRequest(f"invalid JSON body: {error}") from error
        if not isinstance(payload, dict):
            raise _BadRequest("request body must be a JSON object")
        return payload

    def _send(self, code: int, content_type: str, body: bytes,
              close: bool = False) -> int:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if close:
            # Also sets ``close_connection``: the server hangs up after it.
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)
        return code

    def _send_json(self, code: int, payload: Dict[str, Any],
                   close: bool = False) -> int:
        return self._send(code, "application/json",
                          json.dumps(payload).encode("utf-8"), close)

    def _send_text(self, code: int, text: str) -> int:
        return self._send(code, "text/plain; version=0.0.4",
                          text.encode("utf-8"))

    def _send_error(self, code: int, message: str, close: bool = False) -> int:
        return self._send_json(code, {"error": message, "code": code}, close)
