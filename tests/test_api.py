"""End-to-end tests for the HTTP scan/repair API (repro.service.api).

Every suite here drives a *real* server on an ephemeral loopback port
with stdlib ``urllib`` clients — submit -> poll -> result round trips,
error contracts, cache-hit resubmits, concurrent multi-tenant clients
with CLI verdict parity, strategy routing over the wire, and the
``/metrics`` exposition.  The :class:`repro.service.JobQueue` invariants
the API's multi-tenant queueing leans on are pinned separately with a
hypothesis state-machine-style fuzz plus a threaded stress test.
"""

import functools
import heapq
import json
import os
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models import build_model
from repro.nn.serialization import save_model
from repro.obs.metrics import parse_prometheus_text
from repro.service import (JobQueue, ScanRequest, ScanScheduler,
                           execute_resolved, open_store)
from repro.service.api import ApiServer
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
# JobQueue invariants the API's queueing leans on
# --------------------------------------------------------------------- #
#: One fuzzed op: (op kind selector, priority for pushes).
_OPS = st.lists(st.tuples(st.integers(0, 2), st.integers(0, 3)),
                min_size=1, max_size=60)


class TestJobQueueFuzz:
    @settings(max_examples=60, deadline=None)
    @given(ops=_OPS, thread_safe=st.booleans())
    def test_random_interleavings_stay_prioritized_fifo(self, ops,
                                                        thread_safe):
        """Push/pop/requeue interleavings vs a reference model.

        The model mirrors the contract: pops return the lowest priority
        first and FIFO within a priority; a requeued job keeps its
        priority, goes behind already-queued same-priority peers, and
        carries ``attempts + 1``.
        """
        queue = JobQueue(thread_safe=thread_safe)
        model = []  # heap of (priority, seq, payload, attempts)
        seq = 0
        popped = []  # jobs available to requeue
        next_payload = 0
        for op, priority in ops:
            if op == 0:  # push
                queue.push(next_payload, priority=priority)
                heapq.heappush(model, (priority, seq, next_payload, 0))
                seq += 1
                next_payload += 1
            elif op == 1 and model:  # pop
                job = queue.pop()
                want = heapq.heappop(model)
                assert (job.priority, job.payload, job.attempts) == \
                    (want[0], want[2], want[3])
                popped.append(job)
            elif op == 2 and popped:  # requeue a previously popped job
                job = popped.pop(priority % len(popped))
                queue.requeue(job)
                heapq.heappush(model, (job.priority, seq, job.payload,
                                       job.attempts + 1))
                seq += 1
            assert len(queue) == len(model)
        while model:
            job = queue.pop()
            want = heapq.heappop(model)
            assert (job.priority, job.payload, job.attempts) == \
                (want[0], want[2], want[3])
        assert not queue

    def test_threaded_producers_and_consumers_lose_nothing(self):
        queue = JobQueue(thread_safe=True)
        producers, per_producer = 4, 50
        total = producers * per_producer
        consumed = []
        consumed_lock = threading.Lock()

        def produce(producer_id):
            for i in range(per_producer):
                queue.push((producer_id, i), priority=i % 3)

        def consume():
            while True:
                with consumed_lock:
                    if len(consumed) >= total:
                        return
                try:
                    job = queue.pop(block=True, timeout=0.2)
                except IndexError:
                    continue
                with consumed_lock:
                    consumed.append(job.payload)

        threads = ([threading.Thread(target=produce, args=(p,))
                    for p in range(producers)]
                   + [threading.Thread(target=consume) for _ in range(4)])
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert sorted(consumed) == sorted(
            (p, i) for p in range(producers) for i in range(per_producer))
        assert not queue

    def test_blocking_pop_wakes_on_push(self):
        queue = JobQueue(thread_safe=True)
        got = []

        def waiter():
            got.append(queue.pop(block=True, timeout=5.0).payload)

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.05)
        queue.push("wake")
        thread.join(timeout=5)
        assert got == ["wake"]

    def test_blocking_pop_times_out_empty(self):
        queue = JobQueue(thread_safe=True)
        with pytest.raises(IndexError):
            queue.pop(block=True, timeout=0.05)
