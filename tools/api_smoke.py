#!/usr/bin/env python
"""End-to-end smoke test of the HTTP scan API, over real sockets.

Boots an :class:`~repro.service.api.ApiServer` on an ephemeral port
against a temp store, then drives one scan per routing strategy
(``thorough``, ``fastest``, ``cheapest``) through the real HTTP surface
over one keep-alive ``http.client`` connection, as the benchmark and
typical clients talk, and asserts:

1. every job round-trips submit -> poll -> result with a ``done`` status
   and a cost breakdown whose ``total_seconds`` equals the sum of its
   stage seconds,
2. ``thorough`` runs all three detectors while ``fastest`` and
   ``cheapest`` skip NC/TABOR on this clean model with an explicit
   clean-with-margin reason (and reuse the thorough run's USB verdict as
   a cache hit),
3. ``GET /v1/traces/<trace_id>`` returns a stitched span tree rooted at
   ``api.job`` for the first job, and
4. ``GET /metrics`` parses as valid Prometheus text exposition carrying
   the ``repro_http_*`` and ``repro_triage_*`` families next to the
   store-derived ``repro_*`` ones,
5. a ``405`` answer to a request with a body leaves the connection ready
   for the next request, and
6. the median exchange takes under 40 ms (a server that lets Nagle's
   algorithm hold each body for the client's delayed ACK takes ~44 ms).

Run by ``make api-smoke`` (and CI).  Exits non-zero on any failure.
"""

from __future__ import annotations

import http.client
import json
import os
import statistics
import sys
import tempfile
import time

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_ROOT, "src"))

import numpy as np  # noqa: E402

from repro.models import build_model  # noqa: E402
from repro.nn.serialization import save_model  # noqa: E402
from repro.obs import parse_prometheus_text  # noqa: E402
from repro.service.api import ApiServer  # noqa: E402

TINY = {"classes": [0, 1, 2], "clean_budget": 10, "samples_per_class": 3,
        "iterations": 2, "uap_passes": 1}

REQUIRED_FAMILIES = (
    "repro_http_requests_total",
    "repro_http_request_latency_seconds_count",
    "repro_triage_requests_total",
    "repro_triage_stages_run_total",
    "repro_triage_stages_skipped_total",
    "repro_store_scan_records",
)


def _fail(message: str) -> int:
    print(f"FAIL: {message}", file=sys.stderr)
    return 1


#: Median exchange at or above which the smoke fails (seconds).
MAX_MEDIAN_EXCHANGE_S = 0.040


class _Connection:
    """One keep-alive HTTP connection that times every exchange."""

    def __init__(self, host: str, port: int) -> None:
        self._conn = http.client.HTTPConnection(host, port, timeout=60)
        #: Wall-clock seconds of every exchange made so far.
        self.seconds: list = []

    def text(self, method: str, path: str, payload=None):
        """One round trip; returns (status code, body text)."""
        body = json.dumps(payload) if payload is not None else None
        headers = ({"Content-Type": "application/json"}
                   if body is not None else {})
        started = time.perf_counter()
        self._conn.request(method, path, body=body, headers=headers)
        response = self._conn.getresponse()
        text = response.read().decode()
        self.seconds.append(time.perf_counter() - started)
        return response.status, text

    def json(self, method: str, path: str, payload=None):
        """One round trip; returns (status code, decoded JSON body)."""
        code, text = self.text(method, path, payload)
        return code, (json.loads(text) if text else None)

    def close(self) -> None:
        """Close the connection."""
        self._conn.close()


def _poll_done(conn: _Connection, job_id: str,
               timeout: float = 300.0) -> dict:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _, job = conn.json("GET", f"/v1/jobs/{job_id}")
        if job["status"] in ("done", "failed"):
            return job
        time.sleep(0.1)
    raise TimeoutError(f"job {job_id} still {job['status']} after {timeout}s")


def main() -> int:
    """Run the smoke sequence; return a process exit code."""
    with tempfile.TemporaryDirectory(prefix="repro_api_smoke_") as tmp:
        checkpoint = os.path.join(tmp, "candidate.npz")
        model = build_model("basic_cnn", num_classes=10, in_channels=3,
                            image_size=12, rng=np.random.default_rng(0))
        save_model(model, checkpoint,
                   metadata={"model": "basic_cnn", "dataset": "cifar10",
                             "image_size": 12})

        server = ApiServer(os.path.join(tmp, "store"), port=0, job_retries=1)
        server.start()
        conn = _Connection(server.host, server.port)
        try:
            code, health = conn.json("GET", "/healthz")
            if code != 200 or health.get("status") != "ok":
                return _fail(f"/healthz answered {code}: {health}")

            results = {}
            for strategy in ("thorough", "fastest", "cheapest"):
                code, submitted = conn.json(
                    "POST", "/v1/scans",
                    {"checkpoint": checkpoint, "strategy": strategy,
                     "tenant": f"smoke-{strategy}", **TINY})
                if code != 202:
                    return _fail(f"submit[{strategy}] answered {code}")
                job = _poll_done(conn, submitted["job_id"])
                if job["status"] != "done":
                    return _fail(f"job[{strategy}] ended {job['status']}: "
                                 f"{job.get('error')}")
                _, full = conn.json("GET",
                                    f"/v1/jobs/{job['job_id']}/result")
                results[strategy] = full

            # 1. + 2. Cost breakdowns: strategy semantics on a clean model.
            for strategy, full in results.items():
                breakdown = full["result"]["cost_breakdown"]
                ran = [s["detector"] for s in breakdown["stages"]]
                skipped = [s["detector"] for s in breakdown["skipped"]]
                total = breakdown["total_seconds"]
                paid = round(sum(s["seconds"] for s in breakdown["stages"]), 6)
                if total != paid:
                    return _fail(f"[{strategy}] total_seconds {total} != "
                                 f"sum of stages {paid}")
                if full["result"]["verdict"] != "clean":
                    return _fail(f"[{strategy}] verdict "
                                 f"{full['result']['verdict']} on clean model")
                if strategy == "thorough":
                    if ran != ["usb", "nc", "tabor"] or skipped:
                        return _fail(f"thorough ran {ran}, skipped {skipped}")
                else:
                    if ran != ["usb"] or skipped != ["nc", "tabor"]:
                        return _fail(f"[{strategy}] ran {ran}, "
                                     f"skipped {skipped}")
                    reasons = {s["reason"] for s in breakdown["skipped"]}
                    if not all("clean with margin" in r for r in reasons):
                        return _fail(f"[{strategy}] skip reasons {reasons}")
                    # The thorough run already paid for USB: cache hit.
                    if not breakdown["stages"][0]["cache_hit"]:
                        return _fail(f"[{strategy}] USB probe missed the "
                                     "cache after the thorough run")
                print(f"  {strategy:8s}: ran={ran} skipped={skipped} "
                      f"paid={total:.3f}s")

            # 3. Trace endpoint: stitched tree rooted at api.job.
            trace_id = results["thorough"]["trace_id"]
            code, trace = conn.json("GET", f"/v1/traces/{trace_id}")
            if code != 200 or not trace["spans"]:
                return _fail(f"trace {trace_id} answered {code} with "
                             f"{trace}")
            names = {span["name"] for span in trace["spans"]}
            if "api.job" not in names or "scan.request" not in names:
                return _fail(f"trace missing expected spans: {sorted(names)}")

            # 4. /metrics: valid exposition with the API + triage families.
            _, text = conn.text("GET", "/metrics")
            try:
                samples = parse_prometheus_text(text)
            except ValueError as exc:
                return _fail(f"/metrics invalid: {exc}")
            missing = [n for n in REQUIRED_FAMILIES if n not in samples]
            if missing:
                return _fail(f"/metrics missing families {missing}")

            # 5. An error answer reads the request's body: the next request
            # on the connection parses from its own first byte.
            code, _ = conn.json("POST", "/healthz", {"checkpoint": "x.npz"})
            if code != 405:
                return _fail(f"POST /healthz answered {code}")
            code, text = conn.text("GET", "/healthz")
            if code != 200:
                return _fail(f"/healthz after a 405 answered {code}: {text}")

            # 6. No exchange waits for the client's delayed ACK.
            median = statistics.median(conn.seconds)
            if median >= MAX_MEDIAN_EXCHANGE_S:
                return _fail(f"median exchange took {median * 1e3:.1f} ms "
                             f"over {len(conn.seconds)} exchanges "
                             f"(limit {MAX_MEDIAN_EXCHANGE_S * 1e3:.0f} ms)")
        finally:
            conn.close()
            server.close()

    print(f"api smoke OK: 3 strategies served over one keep-alive "
          f"connection, trace stitched ({len(trace['spans'])} spans), "
          f"/metrics valid ({len(samples)} families), median exchange "
          f"{median * 1e3:.2f} ms over {len(conn.seconds)}.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
