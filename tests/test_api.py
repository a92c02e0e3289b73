"""End-to-end tests for the HTTP scan/repair API (repro.service.api).

Every suite here drives a *real* server on an ephemeral loopback port
with stdlib ``urllib`` clients — submit -> poll -> result round trips,
error contracts, cache-hit resubmits, concurrent multi-tenant clients
with CLI verdict parity, strategy routing over the wire, and the
``/metrics`` exposition.  ``TestKeepAlive`` talks over one
``http.client`` connection, as the benchmark and most clients do: error
answers leave no body bytes behind, and an exchange does not wait for the
client's delayed ACK.  The dispatch order of staged jobs (priority,
then submit order), ``close(drain=True)`` without a dispatcher and
``close()`` on a server that never started are pinned on servers that run
no scan.
"""

import functools
import http.client
import json
import os
import socket
import statistics
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest
from repro.models import build_model
from repro.nn.serialization import save_model
from repro.obs.metrics import parse_prometheus_text
from repro.service import (ScanRequest, ScanScheduler, execute_resolved,
                           open_store)
from repro.service.api import MAX_BODY_BYTES, ApiServer
from repro.service.cli import main as cli_main

#: Tiny scan budgets shared by every live scan in this module.
TINY = dict(classes=[0, 1, 2], clean_budget=10, samples_per_class=3,
            iterations=2, uap_passes=1)
#: CLI flags equivalent to :data:`TINY`.
TINY_FLAGS = ["--classes", "0,1,2", "--clean-budget", "10",
              "--samples-per-class", "3", "--iterations", "2",
              "--uap-passes", "1"]


def _save_tiny(path, seed=0):
    model = build_model("basic_cnn", num_classes=10, in_channels=3,
                        image_size=12, rng=np.random.default_rng(seed))
    save_model(model, str(path),
               metadata={"model": "basic_cnn", "dataset": "cifar10",
                         "image_size": 12})
    return str(path)


def _request(base, method, path, payload=None):
    """One HTTP round trip; returns (status code, decoded JSON-or-text)."""
    data = json.dumps(payload).encode() if payload is not None else None
    req = urllib.request.Request(base + path, data=data, method=method,
                                 headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            body = resp.read().decode()
            code = resp.status
    except urllib.error.HTTPError as error:
        body = error.read().decode()
        code = error.code
    try:
        return code, json.loads(body)
    except json.JSONDecodeError:
        return code, body


def _exchange(conn, method, path, payload=None):
    """One round trip on a kept-alive connection; (status, decoded JSON)."""
    body = json.dumps(payload) if payload is not None else None
    headers = {"Content-Type": "application/json"} if body is not None else {}
    conn.request(method, path, body=body, headers=headers)
    response = conn.getresponse()
    return response.status, json.loads(response.read())


def _flaky_execute(marker, resolved):
    """Fails on the first attempt, then delegates to the real scan."""
    if not os.path.exists(marker):
        with open(marker, "w") as handle:
            handle.write("attempted")
        raise RuntimeError("transient failure")
    return execute_resolved(resolved)


def _poll_done(base, job_id, timeout=120.0):
    """Poll ``/v1/jobs/<id>`` until the job leaves the queue/run states."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        code, status = _request(base, "GET", f"/v1/jobs/{job_id}")
        assert code == 200, status
        if status["status"] in ("done", "failed"):
            return status
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} did not finish within {timeout}s")


@pytest.fixture()
def server(tmp_path):
    """A live ApiServer on an ephemeral port over a tmp sharded store."""
    api = ApiServer(str(tmp_path / "store"), port=0, job_retries=1).start()
    yield api
    api.close()


@pytest.fixture()
def base(server):
    """Base URL of the live server."""
    return f"http://127.0.0.1:{server.port}"


# --------------------------------------------------------------------- #
# Lifecycle
# --------------------------------------------------------------------- #
class TestLifecycle:
    def test_submit_poll_result_round_trip(self, base, tmp_path):
        ckpt = _save_tiny(tmp_path / "m.npz")
        code, job = _request(base, "POST", "/v1/scans",
                             {"checkpoint": ckpt, "tenant": "acme", **TINY})
        assert code == 202
        assert job["status"] == "queued"
        assert job["kind"] == "scan"
        assert job["tenant"] == "acme"
        assert job["trace_id"]
        status = _poll_done(base, job["job_id"])
        assert status["status"] == "done"
        code, payload = _request(base, "GET",
                                 f"/v1/jobs/{job['job_id']}/result")
        assert code == 200
        record = payload["result"]
        assert record["checkpoint"] == ckpt
        assert record["detector"] == "USB"
        assert record["cache_hit"] is False
        assert isinstance(record["is_backdoored"], bool)
        # The telemetry block rides along on the record.
        assert record["telemetry"].get("trace_id") == job["trace_id"]

    def test_second_submit_is_a_cache_hit(self, base, tmp_path):
        ckpt = _save_tiny(tmp_path / "m.npz")
        payload = {"checkpoint": ckpt, **TINY}
        _, first = _request(base, "POST", "/v1/scans", payload)
        _poll_done(base, first["job_id"])
        _, second = _request(base, "POST", "/v1/scans", payload)
        _poll_done(base, second["job_id"])
        _, a = _request(base, "GET", f"/v1/jobs/{first['job_id']}/result")
        _, b = _request(base, "GET", f"/v1/jobs/{second['job_id']}/result")
        assert a["result"]["cache_hit"] is False
        assert b["result"]["cache_hit"] is True
        assert b["result"]["is_backdoored"] == a["result"]["is_backdoored"]
        assert b["result"]["fingerprint"] == a["result"]["fingerprint"]

    def test_trace_endpoint_returns_one_stitched_tree(self, base, tmp_path):
        ckpt = _save_tiny(tmp_path / "m.npz")
        _, job = _request(base, "POST", "/v1/scans",
                          {"checkpoint": ckpt, **TINY})
        _poll_done(base, job["job_id"])
        code, payload = _request(base, "GET",
                                 f"/v1/traces/{job['trace_id']}")
        assert code == 200
        spans = payload["spans"]
        assert all(s["trace_id"] == job["trace_id"] for s in spans)
        by_id = {s["span_id"]: s for s in spans}
        roots = [s for s in spans if not s["parent_id"]]
        # Exactly one root — the api.job span — and every other span
        # reaches it through parent links (one stitched tree, no orphans).
        assert [r["name"] for r in roots] == ["api.job"]
        names = {s["name"] for s in spans}
        assert "scan.request" in names
        assert "worker.scan" in names
        for span in spans:
            walk = span
            for _ in range(len(spans)):
                if not walk["parent_id"]:
                    break
                walk = by_id[walk["parent_id"]]
            assert walk["span_id"] == roots[0]["span_id"]

    def test_repair_job_lifecycle(self, base, tmp_path):
        ckpt = _save_tiny(tmp_path / "m.npz")
        code, job = _request(
            base, "POST", "/v1/repairs",
            {"checkpoint": ckpt, "strategy": "prune", "rescan": False,
             "unlearn_epochs": 1, **TINY})
        assert code == 202
        assert job["kind"] == "repair"
        status = _poll_done(base, job["job_id"], timeout=240.0)
        assert status["status"] == "done", status["error"]
        _, payload = _request(base, "GET", f"/v1/jobs/{job['job_id']}/result")
        record = payload["result"]
        assert record["record"] == "repair"
        assert record["strategy"] == "prune"
        assert isinstance(record["success"], bool)

    def test_missing_checkpoint_fails_at_its_single_resolution_attempt(
            self, server, base):
        _, job = _request(base, "POST", "/v1/scans",
                          {"checkpoint": "missing.npz", **TINY})
        status = _poll_done(base, job["job_id"])
        assert status["status"] == "failed"
        assert "missing.npz" in status["error"]
        # Resolution runs once in the dispatcher: the scheduler's retry
        # budget covers backend attempts, not an unreadable checkpoint.
        metrics = server.scheduler.metrics
        assert (metrics.failures, metrics.retries) == (1, 0)
        code, payload = _request(base, "GET",
                                 f"/v1/jobs/{job['job_id']}/result")
        assert code == 200
        assert payload["status"] == "failed"

    def test_corrupt_checkpoint_fails_naming_the_file(self, server, base,
                                                      tmp_path):
        bad = tmp_path / "bad.npz"
        bad.write_bytes(b"PK\x03\x04 this is not a checkpoint")
        _, job = _request(base, "POST", "/v1/scans",
                          {"checkpoint": str(bad), **TINY})
        status = _poll_done(base, job["job_id"])
        assert status["status"] == "failed"
        assert status["error"] == (f"ValueError: {bad}: not a readable .npz "
                                   "checkpoint (File is not a zip file)")

    def test_inline_attempt_failing_once_ends_done(self, server, base,
                                                   tmp_path, monkeypatch):
        # job_retries=1 on the fixture server is the scheduler's budget:
        # the inline backend retries the failed attempt in place.
        monkeypatch.setattr(
            "repro.service.scheduler.execute_resolved",
            functools.partial(_flaky_execute, str(tmp_path / "marker")))
        ckpt = _save_tiny(tmp_path / "m.npz")
        _, job = _request(base, "POST", "/v1/scans",
                          {"checkpoint": ckpt, **TINY})
        status = _poll_done(base, job["job_id"])
        assert status["status"] == "done", status["error"]
        metrics = server.scheduler.metrics
        assert (metrics.failures, metrics.retries) == (0, 1)


    def test_failed_job_leaves_a_complete_trace(self, tmp_path):
        # Resolution fails (the checkpoint names no model/dataset), yet the
        # scan.request root is finished and written: no orphaned spans.
        api = ApiServer(str(tmp_path / "store"), port=0).start()
        try:
            base = f"http://127.0.0.1:{api.port}"
            bare = str(tmp_path / "bare.npz")
            save_model(build_model("basic_cnn", num_classes=10, in_channels=3,
                                   image_size=12,
                                   rng=np.random.default_rng(5)), bare)
            _, job = _request(base, "POST", "/v1/scans",
                              {"checkpoint": bare, **TINY})
            status = _poll_done(base, job["job_id"])
            assert status["status"] == "failed"
            code, payload = _request(base, "GET",
                                     f"/v1/traces/{job['trace_id']}")
        finally:
            api.close()
        assert code == 200
        spans = payload["spans"]
        roots = [s for s in spans if not s["parent_id"]]
        assert [r["name"] for r in roots] == ["api.job"]
        ids = {s["span_id"] for s in spans}
        assert all(s["parent_id"] in ids for s in spans if s["parent_id"])
        request_root = next(s for s in spans if s["name"] == "scan.request")
        assert "metadata" in request_root["attrs"]["error"]
        assert "scan.fingerprint" in {s["name"] for s in spans}


# --------------------------------------------------------------------- #
# Error contracts
# --------------------------------------------------------------------- #
class TestErrorContracts:
    def test_unknown_job_404(self, base):
        assert _request(base, "GET", "/v1/jobs/nope")[0] == 404
        assert _request(base, "GET", "/v1/jobs/nope/result")[0] == 404

    def test_unknown_route_404(self, base):
        assert _request(base, "GET", "/v2/scans")[0] == 404
        assert _request(base, "GET", "/")[0] == 404

    def test_unknown_trace_404(self, base):
        assert _request(base, "GET", "/v1/traces/deadbeef")[0] == 404

    def test_bad_payloads_400(self, base, tmp_path):
        code, body = _request(base, "POST", "/v1/scans", {"nope": 1})
        assert code == 400 and "checkpoint" in body["error"]
        code, body = _request(base, "POST", "/v1/scans",
                              {"checkpoint": "x.npz", "strategy": "warp"})
        assert code == 400 and "strategy" in body["error"]
        code, body = _request(base, "POST", "/v1/scans",
                              {"checkpoint": "x.npz", "detector": "magic"})
        assert code == 400
        code, body = _request(base, "POST", "/v1/repairs", {"nope": 1})
        assert code == 400
        # Non-JSON and non-object bodies.
        req = urllib.request.Request(base + "/v1/scans", data=b"not json",
                                     method="POST")
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=30)
        assert err.value.code == 400
        code, _ = _request(base, "POST", "/v1/scans", [1, 2, 3])
        assert code == 400
        code, body = _request(base, "POST", "/v1/scans")
        assert code == 400 and "empty" in body["error"]

    def test_non_integer_priority_400(self, base):
        routes = ("/v1/scans", "/v1/repairs")
        for route in routes:
            for priority in ("high", None):
                code, body = _request(base, "POST", route,
                                      {"checkpoint": "x.npz",
                                       "priority": priority})
                assert code == 400 and "priority" in body["error"]
        # Every rejected request is counted (the counter is bumped right
        # after the response is written, so give the handlers a moment).
        deadline = time.monotonic() + 5.0
        while True:
            _, text = _request(base, "GET", "/metrics")
            counted = {labels["route"]: value for labels, value in
                       parse_prometheus_text(text)["repro_http_requests_total"]
                       if labels["code"] == "400"}
            if counted == {route: 2 for route in routes} or \
                    time.monotonic() > deadline:
                break
            time.sleep(0.05)
        assert counted == {route: 2 for route in routes}
        assert _request(base, "GET", "/healthz") == (200, {"status": "ok"})

    def test_wrong_method_405(self, base):
        assert _request(base, "GET", "/v1/scans")[0] == 405
        assert _request(base, "GET", "/v1/repairs")[0] == 405
        assert _request(base, "POST", "/metrics", {})[0] == 405
        assert _request(base, "POST", "/v1/jobs/some-id", {})[0] == 405
        assert _request(base, "POST", "/healthz", {})[0] == 405
        assert _request(base, "PUT", "/v1/scans", {})[0] == 405
        assert _request(base, "DELETE", "/v1/jobs/some-id")[0] == 405

    def test_pending_result_409(self, tmp_path):
        # No dispatcher: the job stays queued, so its result is a 409.
        api = ApiServer(str(tmp_path / "store"), port=0)
        api.start(dispatch=False)
        try:
            stub = f"http://127.0.0.1:{api.port}"
            ckpt = _save_tiny(tmp_path / "m.npz")
            _, job = _request(stub, "POST", "/v1/scans",
                              {"checkpoint": ckpt, **TINY})
            assert job["status"] == "queued"
            code, body = _request(stub, "GET",
                                  f"/v1/jobs/{job['job_id']}/result")
            assert code == 409
            assert "queued" in body["error"]
        finally:
            api.close()


# --------------------------------------------------------------------- #
# Keep-alive connections
# --------------------------------------------------------------------- #
class TestKeepAlive:
    @pytest.fixture()
    def conn(self, server):
        """One keep-alive ``http.client`` connection to the live server."""
        conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                          timeout=30)
        yield conn
        conn.close()

    def test_error_answers_read_the_request_body(self, conn):
        for method, path, code in (("POST", "/metrics", 405),
                                   ("POST", "/v1/jobs/x", 405),
                                   ("PUT", "/v1/scans", 405),
                                   ("POST", "/nope", 404)):
            assert _exchange(conn, method, path, {"checkpoint": "x.npz"})[0] \
                == code
            assert _exchange(conn, "GET", "/healthz") == (200, {"status": "ok"})

    @staticmethod
    def _refused_post(server, framing):
        """Status code of a raw ``POST /v1/scans`` the server answers and
        then hangs up on; a kept-open connection times the read out."""
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=10) as sock:
            sock.sendall(f"POST /v1/scans HTTP/1.1\r\nHost: test\r\n"
                         f"{framing}\r\n\r\n2\r\n{{}}\r\n0\r\n\r\n".encode())
            # No more bytes follow, so a server that reads the declared
            # length sees the end of the body instead of waiting for it.
            sock.shutdown(socket.SHUT_WR)
            reply = b""
            while chunk := sock.recv(4096):
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        assert b"\r\nConnection: close" in head
        code = json.loads(body)["code"]
        assert head.startswith(f"HTTP/1.1 {code} ".encode())
        return code

    @pytest.mark.parametrize("framing", ["Content-Length: abc",
                                         "Content-Length: -2",
                                         "Transfer-Encoding: chunked"])
    def test_undelimited_body_is_refused_and_the_connection_closed(
            self, server, framing):
        assert self._refused_post(server, framing) == 400

    @pytest.mark.parametrize("length", ["1000000000000000000",
                                        str(MAX_BODY_BYTES + 1),
                                        "0" * 30 + str(MAX_BODY_BYTES + 1),
                                        "9" * 5000],
                             ids=["1e18", "limit+1", "zero-padded",
                                  "5000-digits"])
    def test_oversized_body_is_refused_unread_and_the_connection_closed(
            self, server, base, length):
        # ``rfile.read`` allocates the declared length before reading: 10**18
        # bytes would raise MemoryError and drop the connection unanswered.
        assert self._refused_post(server, f"Content-Length: {length}") == 413
        assert _request(base, "GET", "/healthz") == (200, {"status": "ok"})

    def test_exchange_does_not_wait_for_a_delayed_ack(self, conn):
        # With Nagle's algorithm on, each answer's body waits ~40 ms for
        # the client's ACK of its headers.
        seconds = []
        for _ in range(21):
            started = time.perf_counter()
            assert _exchange(conn, "GET", "/healthz")[0] == 200
            seconds.append(time.perf_counter() - started)
        assert statistics.median(seconds) < 0.020

    def test_cached_job_round_trip_is_fast(self, conn, tmp_path):
        payload = {"checkpoint": _save_tiny(tmp_path / "m.npz"),
                   "strategy": "fastest", **TINY}

        def run_job(pause):
            _, job = _exchange(conn, "POST", "/v1/scans", payload)
            while _exchange(conn, "GET", f"/v1/jobs/{job['job_id']}")[1][
                    "status"] not in ("done", "failed"):
                time.sleep(pause)
            return _exchange(conn, "GET", f"/v1/jobs/{job['job_id']}/result")

        run_job(0.05)  # The first submit scans and fills the cache.
        started = time.perf_counter()
        code, answer = run_job(0.002)
        seconds = time.perf_counter() - started
        assert code == 200
        assert answer["result"]["cost_breakdown"]["stages"][0]["cache_hit"]
        # Submit, at least one poll and the result: three exchanges.
        assert seconds < 0.100


# --------------------------------------------------------------------- #
# Concurrency + CLI parity  (the acceptance-criteria test)
# --------------------------------------------------------------------- #
class TestConcurrentClients:
    def test_concurrent_clients_get_cli_identical_verdicts(
            self, base, tmp_path, capsys):
        checkpoints = [_save_tiny(tmp_path / f"m{i}.npz", seed=i)
                       for i in range(4)]
        results = {}
        errors = []

        def client(client_id, ckpt):
            try:
                _, job = _request(base, "POST", "/v1/scans",
                                  {"checkpoint": ckpt,
                                   "tenant": f"tenant-{client_id}",
                                   "priority": client_id % 2, **TINY})
                status = _poll_done(base, job["job_id"], timeout=240.0)
                assert status["status"] == "done", status["error"]
                assert status["tenant"] == f"tenant-{client_id}"
                _, payload = _request(base, "GET",
                                      f"/v1/jobs/{job['job_id']}/result")
                results[client_id] = (job["job_id"], payload["result"])
            except Exception as error:  # noqa: BLE001 - collected for assert
                errors.append((client_id, repr(error)))

        threads = [threading.Thread(target=client, args=(i, checkpoints[i]))
                   for i in range(len(checkpoints))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        assert errors == []
        # Zero lost jobs, zero cross-tenant leaks: every client got a
        # distinct job whose result is about the checkpoint IT submitted.
        assert len(results) == len(checkpoints)
        assert len({job_id for job_id, _ in results.values()}) == len(results)
        for client_id, (_, record) in results.items():
            assert record["checkpoint"] == checkpoints[client_id]

        # Verdict parity with the serial CLI path: scan the same
        # checkpoints through `python -m repro scan` into a fresh store.
        for client_id, ckpt in enumerate(checkpoints):
            cli_store = str(tmp_path / "cli_store.jsonl")
            assert cli_main(["scan", ckpt, "--store", cli_store,
                             "--json", *TINY_FLAGS]) == 0
            cli_record = json.loads(capsys.readouterr().out)[0]
            api_record = results[client_id][1]
            assert api_record["is_backdoored"] == cli_record["is_backdoored"]
            assert api_record["flagged_classes"] == cli_record["flagged_classes"]
            assert api_record["fingerprint"] == cli_record["fingerprint"]
            assert api_record["detection"]["anomaly_indices"] == \
                cli_record["detection"]["anomaly_indices"]


# --------------------------------------------------------------------- #
# Strategy routing over the wire
# --------------------------------------------------------------------- #
class TestStrategyOverApi:
    def test_fastest_skips_escalation_on_clean_model(self, base, tmp_path):
        ckpt = _save_tiny(tmp_path / "clean.npz")
        _, job = _request(base, "POST", "/v1/scans",
                          {"checkpoint": ckpt, "strategy": "fastest", **TINY})
        status = _poll_done(base, job["job_id"])
        assert status["status"] == "done", status["error"]
        assert status["strategy"] == "fastest"
        _, payload = _request(base, "GET", f"/v1/jobs/{job['job_id']}/result")
        result = payload["result"]
        assert result["verdict"] == "clean"
        breakdown = result["cost_breakdown"]
        assert [s["detector"] for s in breakdown["stages"]] == ["usb"]
        assert [s["detector"] for s in breakdown["skipped"]] == ["nc", "tabor"]
        assert breakdown["escalated"] is False
        assert breakdown["total_seconds"] == pytest.approx(
            sum(s["seconds"] for s in breakdown["stages"]))
        # The breakdown also rides on each per-stage record's telemetry.
        assert result["records"][0]["telemetry"]["cost_breakdown"][
            "strategy"] == "fastest"

    def test_fastest_escalates_on_flagged_model(self, base, tmp_path):
        # A near-zero MAD threshold makes the probe flag this checkpoint —
        # deterministically "backdoored" as far as routing is concerned.
        ckpt = _save_tiny(tmp_path / "sus.npz")
        _, job = _request(base, "POST", "/v1/scans",
                          {"checkpoint": ckpt, "strategy": "fastest",
                           "anomaly_threshold": 0.05, **TINY})
        status = _poll_done(base, job["job_id"], timeout=240.0)
        assert status["status"] == "done", status["error"]
        _, payload = _request(base, "GET", f"/v1/jobs/{job['job_id']}/result")
        result = payload["result"]
        assert result["verdict"] == "BACKDOORED"
        breakdown = result["cost_breakdown"]
        assert [s["detector"] for s in breakdown["stages"]] == \
            ["usb", "nc", "tabor"]
        assert breakdown["skipped"] == []
        assert breakdown["escalated"] is True
        assert "flagged" in breakdown["escalation_reason"]

    def test_metrics_expose_triage_and_http_families(self, base, tmp_path):
        ckpt = _save_tiny(tmp_path / "clean.npz")
        _, job = _request(base, "POST", "/v1/scans",
                          {"checkpoint": ckpt, "strategy": "fastest", **TINY})
        _poll_done(base, job["job_id"])
        code, text = _request(base, "GET", "/metrics")
        assert code == 200
        samples = parse_prometheus_text(text)  # validates the exposition
        assert "repro_http_requests_total" in samples
        assert "repro_http_request_latency_seconds_count" in samples
        assert "repro_triage_requests_total" in samples
        # The cost breakdown is visible in /metrics: the clean fastest run
        # above skipped nc and tabor.
        skipped = {labels["detector"]: value for labels, value in
                   samples["repro_triage_stages_skipped_total"]}
        assert skipped.get("nc", 0) >= 1
        assert skipped.get("tabor", 0) >= 1
        ran = {labels["detector"]: value for labels, value in
               samples["repro_triage_stages_run_total"]}
        assert ran.get("usb", 0) >= 1
        # Store families are present alongside (disjoint names).
        assert "repro_store_scan_records" in samples

    def test_api_and_cli_strategy_paths_share_the_cache(self, server, base,
                                                        tmp_path, capsys):
        ckpt = _save_tiny(tmp_path / "m.npz")
        _, job = _request(base, "POST", "/v1/scans",
                          {"checkpoint": ckpt, "strategy": "fastest", **TINY})
        _poll_done(base, job["job_id"])
        # The CLI triage against the SAME store serves the probe stage from
        # the record the API path just cached.
        assert cli_main(["scan", ckpt, "--store", server.store_path,
                         "--strategy", "fastest", "--json",
                         *TINY_FLAGS]) == 0
        cli_result = json.loads(capsys.readouterr().out)
        assert cli_result["cost_breakdown"]["stages"][0]["cache_hit"] is True
        _, payload = _request(base, "GET", f"/v1/jobs/{job['job_id']}/result")
        assert cli_result["verdict"] == payload["result"]["verdict"]


# --------------------------------------------------------------------- #
# Queue order and shutdown
# --------------------------------------------------------------------- #
class TestQueueOrder:
    def test_staged_jobs_run_by_priority_then_submit_order(self, tmp_path):
        api = ApiServer(str(tmp_path / "store"), port=0)
        ran = []
        api._execute = lambda job: ran.append(job.job_id) or {}
        request = ScanRequest(checkpoint=str(tmp_path / "m.npz"))
        # Staged before the dispatcher starts, so all three are queued when
        # the first one is taken.
        late = api.submit("scan", request, priority=1)
        first = api.submit("scan", request, priority=0)
        second = api.submit("scan", request, priority=0)
        staged = api.queue.qsize()
        api.start()
        try:
            deadline = time.monotonic() + 10.0
            while len(ran) < 3 and time.monotonic() < deadline:
                time.sleep(0.01)
        finally:
            api.close()
        assert staged == 3
        assert ran == [first.job_id, second.job_id, late.job_id]
        assert all(api.job(job_id).status == "done" for job_id in ran)
        assert api.queue.empty()

    def test_close_drain_returns_without_a_dispatcher(self, tmp_path):
        api = ApiServer(str(tmp_path / "store"), port=0)
        api.start(dispatch=False)
        request = ScanRequest(checkpoint=str(tmp_path / "m.npz"))
        job = api.submit("scan", request)
        closer = threading.Thread(target=api.close, kwargs={"drain": True},
                                  daemon=True)
        closer.start()
        closer.join(timeout=5.0)
        assert not closer.is_alive(), "close(drain=True) hung on the queue"
        assert api.job(job.job_id).status == "queued"

    def test_close_returns_on_a_server_that_never_started(self, tmp_path):
        api = ApiServer(str(tmp_path / "store"), port=0)
        closer = threading.Thread(target=api.close, daemon=True)
        closer.start()
        closer.join(timeout=3.0)
        assert not closer.is_alive(), "close() hung on an unstarted server"
        # The listening socket is released even though no loop ever ran.
        assert api._server.socket.fileno() == -1
