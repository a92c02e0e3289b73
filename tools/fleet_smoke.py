#!/usr/bin/env python
"""End-to-end smoke test of the lease-based worker fleet, over real processes.

Four phases, each against its own temp store:

1. **Pool sizing, verdict parity, zero lost jobs.**  Starts a three-worker
   fleet (real ``python -m repro worker`` subprocesses), waits until all
   three are live, and asserts that one probe job per worker reports a BLAS
   pool of ``max(1, min(start, cpus // 3))`` threads.  Then scans two tiny
   checkpoints with two detectors through ``--backend inline`` and through
   the fleet, and asserts the fleet verdicts are identical to the serial
   ones and that every submitted fleet job ended ``done`` (none lost, none
   failed).  A second pass repeats the
   grid with ``inversion_mode="mega"``: its one mega-group job must match the
   inline mega verdicts and every record must carry a fleet worker's pid,
   not the submitter's.
2. **Kill a worker mid-job.**  SIGKILLs a worker while it holds a lease on a
   sleeping probe job and asserts the lease expires, the job is requeued
   within its retry budget, and a freshly started worker completes it.
3. **HTTP fleet scan with a stitched trace.**  Boots an
   :class:`~repro.service.api.ApiServer` with ``backend="fleet"``, serves a
   ``thorough`` strategy scan through single-job workers, and asserts the
   ``/v1/traces/<trace_id>`` span tree is one tree rooted at ``api.job``
   spanning at least two distinct worker pids.
4. **Fleet metrics.**  Asserts ``GET /metrics`` exports the
   ``repro_fleet_*`` families for the fleet-backed server.

Run by ``make fleet-smoke`` (and CI).  Exits non-zero on any failure.
"""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
import urllib.request

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_ROOT, "src"))

import numpy as np  # noqa: E402

from repro.models import build_model  # noqa: E402
from repro.nn.blas import threads  # noqa: E402
from repro.nn.serialization import save_model  # noqa: E402
from repro.obs import parse_prometheus_text  # noqa: E402
from repro.service.api import ApiServer  # noqa: E402
from repro.service.fleet import (  # noqa: E402
    FleetBackend,
    FleetQueue,
    fleet_snapshot,
    probe_job,
)
from repro.service.records import ScanRequest  # noqa: E402
from repro.service.scheduler import ScanScheduler  # noqa: E402
from repro.service.store import open_store  # noqa: E402

TINY = {"classes": (0, 1, 2), "clean_budget": 10, "samples_per_class": 3,
        "iterations": 2, "uap_passes": 1}

FLEET_FAMILIES = (
    "repro_fleet_workers_live",
    "repro_fleet_leases_held",
    "repro_fleet_leases_expired_total",
    "repro_fleet_leases_requeued_total",
    "repro_fleet_jobs_done_total",
    "repro_fleet_jobs_failed_total",
    "repro_fleet_queue_depth",
)


def _fail(message: str) -> int:
    print(f"FAIL: {message}", file=sys.stderr)
    return 1


def _spawn_worker(store: str, *extra: str) -> subprocess.Popen:
    """Start one real ``python -m repro worker`` subprocess on ``store``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(_ROOT, "src"),
         env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "worker", store,
         "--poll-interval", "0.05", *extra],
        env=env, cwd=_ROOT,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


def _reap(workers) -> None:
    for proc in workers:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)


def _wait_for(check, timeout: float, message: str):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = check()
        if value is not None:
            return value
        time.sleep(0.05)
    raise TimeoutError(message)


def _verdict_view(record) -> dict:
    """The backend-independent slice of a record (execution fields dropped)."""
    return {
        "key": record.key,
        "detector": record.detector,
        "is_backdoored": record.is_backdoored,
        "flagged_classes": tuple(record.flagged_classes),
        "suspect_class": record.suspect_class,
        "anomaly_indices": record.detection.get("anomaly_indices"),
    }


def _check_pool_sizes(store: str, workers: int) -> int:
    """One probe per live worker: each reports its share of the cores."""
    _wait_for(lambda: (fleet_snapshot(store) or {}).get(
        "workers_live", 0) >= workers or None,
        60, f"{workers} fleet workers never went live")
    start = threads()
    expected = (None if start is None else
                max(1, min(start, len(os.sched_getaffinity(0)) // workers)))
    probes = FleetBackend(store, poll_interval=0.05).run(
        probe_job, [{"sleep": 0.5, "value": index}
                    for index in range(workers)])
    sizes = [probe["blas_threads"] for probe in probes]
    if sizes != [expected] * workers:
        return _fail(f"fleet workers' BLAS pools are {sizes}, expected "
                     f"{expected} each ({workers} live workers)")
    print(f"  blas   : {workers} live workers on this host, each probe ran "
          f"with a {expected}-thread BLAS pool (pids "
          f"{sorted({probe['pid'] for probe in probes})})")
    return 0


def _phase_parity(tmp: str, checkpoints) -> int:
    """Phase 1: pool sizing, then fleet verdicts == inline, no lost jobs.

    Runs the grid twice — default mode, then ``inversion_mode="mega"``,
    whose misses travel as one mega-group job that a worker must execute.
    """
    requests = [ScanRequest(checkpoint=ckpt, detector=detector, **TINY)
                for ckpt in checkpoints for detector in ("usb", "nc")]
    mega_requests = [dataclasses.replace(request, inversion_mode="mega")
                     for request in requests]

    inline_store = os.path.join(tmp, "store_inline")
    inline = ScanScheduler(store=open_store(inline_store), backend="inline")
    baseline = inline.scan(requests)
    mega_baseline = inline.scan(mega_requests)

    fleet_store = os.path.join(tmp, "store_fleet")
    workers = [_spawn_worker(fleet_store, "--idle-timeout", "30")
               for _ in range(3)]
    try:
        status = _check_pool_sizes(fleet_store, len(workers))
        if status:
            return status
        scheduler = ScanScheduler(store=open_store(fleet_store),
                                  backend="fleet")
        fleet = scheduler.scan(requests)
        mega = scheduler.scan(mega_requests)
    finally:
        _reap(workers)

    for position, (serial, pooled) in enumerate(
            zip(baseline + mega_baseline, fleet + mega)):
        if _verdict_view(serial) != _verdict_view(pooled):
            return _fail(f"request {position}: fleet verdict diverged: "
                         f"{_verdict_view(serial)} != {_verdict_view(pooled)}")
    worker_pids = {worker.pid for worker in workers}
    misplaced = [record.worker_pid for record in mega
                 if record.worker_pid not in worker_pids]
    if misplaced:
        return _fail(f"mega records ran outside the fleet: pids {misplaced} "
                     f"(workers {sorted(worker_pids)}, submitter "
                     f"{os.getpid()})")
    snapshot = fleet_snapshot(fleet_store)
    submitted = len(workers) + len(requests) + 1  # probes, scans, mega group
    if snapshot["jobs_done"] != submitted:
        return _fail(f"lost jobs: {snapshot['jobs_done']} done of "
                     f"{submitted} submitted ({snapshot})")
    if snapshot["jobs_failed"] or snapshot["jobs_queued"]:
        return _fail(f"fleet left failed/queued jobs behind: {snapshot}")
    print(f"  parity : {len(requests)} scans + {len(mega)} mega scans in one "
          f"group job, fleet == inline verdicts, {snapshot['jobs_done']} "
          "done / 0 lost, mega ran on a worker")
    return 0


def _phase_kill_worker(tmp: str) -> int:
    """Phase 2: SIGKILL a leased worker; expiry requeues; a survivor finishes."""
    store = os.path.join(tmp, "store_kill")
    queue = FleetQueue(store, reader_id="smoke")
    job_id = queue.submit("probe", {"sleep": 2.0, "value": 7}, retries=1)
    victim = _spawn_worker(store, "--lease-seconds", "0.6", "--max-jobs", "1")
    survivor = None
    try:
        _wait_for(lambda: queue.poll([job_id])[job_id].owner, 30,
                  "no worker ever leased the probe job")
        victim.send_signal(signal.SIGKILL)
        victim.wait(timeout=10)
        survivor = _spawn_worker(store, "--lease-seconds", "0.6",
                                 "--max-jobs", "1")
        job = _wait_for(
            lambda: (queue.poll([job_id])[job_id]
                     if queue.poll([job_id])[job_id].status == "done"
                     else None),
            30, "job never completed after its worker was killed")
    finally:
        _reap([victim, survivor] if survivor else [victim])
    if job.attempts != 2:
        return _fail(f"expected 2 attempts (killed + survivor), "
                     f"got {job.attempts}")
    if job.result["pid"] != survivor.pid:
        return _fail(f"result pid {job.result['pid']} is not the "
                     f"survivor's ({survivor.pid})")
    snapshot = fleet_snapshot(store)
    if snapshot["leases_requeued_total"] < 1 or \
            snapshot["leases_expired_total"] < 1:
        return _fail(f"kill was not recovered via lease expiry: {snapshot}")
    print(f"  lease  : worker {victim.pid} killed mid-job; requeued on "
          f"expiry; worker {survivor.pid} completed attempt 2")
    return 0


def _request(base: str, method: str, path: str, payload=None):
    data = json.dumps(payload).encode() if payload is not None else None
    req = urllib.request.Request(base + path, data=data, method=method)
    if data is not None:
        req.add_header("Content-Type", "application/json")
    with urllib.request.urlopen(req, timeout=60) as resp:
        body = resp.read().decode()
        return resp.status, (json.loads(body) if body else None)


def _phase_http(tmp: str, checkpoint: str) -> int:
    """Phases 3+4: HTTP fleet scan with a multi-pid stitched trace + metrics."""
    store = os.path.join(tmp, "store_http")
    server = ApiServer(store, port=0, job_retries=1, backend="fleet")
    server.start()
    base = f"http://{server.host}:{server.port}"
    workers = [_spawn_worker(store, "--max-jobs", "1", "--idle-timeout", "60")
               for _ in range(3)]
    try:
        code, submitted = _request(
            base, "POST", "/v1/scans",
            {"checkpoint": checkpoint, "strategy": "thorough",
             "tenant": "smoke-fleet",
             **{k: list(v) if isinstance(v, tuple) else v
                for k, v in TINY.items()}})
        if code != 202:
            return _fail(f"fleet submit answered {code}")
        job = _wait_for(
            lambda: (_request(base, "GET",
                              f"/v1/jobs/{submitted['job_id']}")[1]
                     if _request(base, "GET",
                                 f"/v1/jobs/{submitted['job_id']}"
                                 )[1]["status"] in ("done", "failed")
                     else None),
            300, "HTTP fleet job never finished")
        if job["status"] != "done":
            return _fail(f"HTTP fleet job ended {job['status']}: "
                         f"{job.get('error')}")

        code, trace = _request(base, "GET",
                               f"/v1/traces/{submitted['trace_id']}")
        if code != 200 or not trace["spans"]:
            return _fail(f"trace endpoint answered {code}: {trace}")
        spans = trace["spans"]
        ids = {span["span_id"] for span in spans}
        roots = [span for span in spans if span["parent_id"] not in ids]
        if len(roots) != 1 or roots[0]["name"] != "api.job":
            return _fail("fleet trace is not one tree rooted at api.job: "
                         f"roots={[(s['name'], s['pid']) for s in roots]}")
        worker_pids = {span["pid"] for span in spans} - {os.getpid()}
        if len(worker_pids) < 2:
            return _fail(f"fleet trace spans {len(worker_pids)} worker "
                         f"pid(s), expected >= 2 ({sorted(worker_pids)})")

        with urllib.request.urlopen(base + "/metrics", timeout=60) as resp:
            text = resp.read().decode()
        samples = parse_prometheus_text(text)
        missing = [name for name in FLEET_FAMILIES if name not in samples]
        if missing:
            return _fail(f"/metrics missing fleet families {missing}")
    finally:
        _reap(workers)
        server.close()
    print(f"  http   : thorough scan served by the fleet; one trace tree "
          f"({len(spans)} spans) across {len(worker_pids)} worker pids; "
          f"repro_fleet_* families exported")
    return 0


def main() -> int:
    """Run the smoke sequence; return a process exit code."""
    with tempfile.TemporaryDirectory(prefix="repro_fleet_smoke_") as tmp:
        checkpoints = []
        for seed in (0, 1):
            path = os.path.join(tmp, f"candidate{seed}.npz")
            model = build_model("basic_cnn", num_classes=10, in_channels=3,
                                image_size=12,
                                rng=np.random.default_rng(seed))
            save_model(model, path,
                       metadata={"model": "basic_cnn", "dataset": "cifar10",
                                 "image_size": 12})
            checkpoints.append(path)

        for phase in (lambda: _phase_parity(tmp, checkpoints),
                      lambda: _phase_kill_worker(tmp),
                      lambda: _phase_http(tmp, checkpoints[0])):
            status = phase()
            if status:
                return status

    print("fleet smoke OK: per-worker BLAS pool sizing, 3-worker parity "
          "with inline, kill-recovery via lease expiry, multi-pid HTTP "
          "trace, fleet metrics.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
