"""Lease protocol tests for the distributed worker fleet.

Three layers, matching the guarantees :mod:`repro.service.fleet` documents:

* deterministic :class:`FleetQueue` unit tests driven by an injected fake
  clock — acquire/renew/expire/requeue transitions, retry budgets,
  ownership checks across independent queue instances;
* a hypothesis rule-based state machine interleaving submit / acquire /
  renew / complete / error / time-advance and asserting the two fleet
  invariants after every step: **no double ownership** (a stale owner can
  never publish over the current one) and **no lost jobs** (every
  submitted job stays visible and terminates ``done`` or ``failed``
  within its retry budget);
* a kill-a-worker-mid-scan integration test: a real ``python -m repro
  worker`` subprocess is SIGKILLed while holding a lease, and the job is
  requeued on expiry and completed by a second worker process.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.service.fleet import (
    DEFAULT_TENANT,
    FleetBackend,
    FleetQueue,
    LeaseLostError,
    fleet_dir,
    fleet_snapshot,
    kind_for,
    probe_job,
    run_worker,
)
from repro.models import build_model
from repro.nn.serialization import save_model
from repro.service import ScanRequest, ScanScheduler, open_store
from repro.service.planning import JobTimeoutError, ServiceMetrics
from repro.service.repair import RepairRequest, execute_repair, resolve_repair
from repro.service.scheduler import execute_mega_group, execute_resolved

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Tiny scan budgets for the real-scan fleet tests.
TINY = dict(classes=(0, 1, 2), clean_budget=10, samples_per_class=3,
            iterations=2, uap_passes=1)


def _save_tiny(path, seed=0):
    model = build_model("basic_cnn", num_classes=10, in_channels=3,
                        image_size=12, rng=np.random.default_rng(seed))
    save_model(model, str(path), metadata={"model": "basic_cnn",
                                           "dataset": "cifar10",
                                           "image_size": 12})
    return str(path)


def _verdict(record):
    """A record's backend-independent payload (JSON-normalized, untimed)."""
    detection = {k: v for k, v in record.detection.items()
                 if k != "seconds_total"}
    return (record.key, record.is_backdoored, tuple(record.flagged_classes),
            json.dumps(detection, sort_keys=True))


def _spawn_worker(store, *extra):
    """Start one real ``python -m repro worker`` subprocess on ``store``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(REPO_ROOT, "src"),
         env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "worker", store, *extra],
        env=env, cwd=REPO_ROOT,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)

LEASE = 10.0


class FakeClock:
    """Deterministic, manually advanced time source for lease tests."""

    def __init__(self, start: float = 1000.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture()
def clock():
    return FakeClock()


@pytest.fixture()
def store(tmp_path):
    return str(tmp_path / "store")


def make_queue(store, clock, reader_id="reader"):
    return FleetQueue(store, clock=clock, reader_id=reader_id)


class TestFleetQueue:
    """Deterministic lease-machine transitions under a fake clock."""

    def test_submit_acquire_complete_roundtrip(self, store, clock):
        queue = make_queue(store, clock)
        first = queue.submit("probe", {"value": 1})
        second = queue.submit("probe", {"value": 2})
        claim = queue.acquire("w1", pid=101, lease_seconds=LEASE)
        assert claim is not None
        assert claim.job_id == first  # FIFO within a priority
        assert claim.attempts == 1
        queue.complete(first, "w1", {"value": 1, "pid": 101})
        state = queue.poll([first, second])
        assert state[first].status == "done"
        assert state[first].result == {"value": 1, "pid": 101}
        assert state[second].status == "queued"

    def test_lower_priority_number_runs_first(self, store, clock):
        queue = make_queue(store, clock)
        slow = queue.submit("probe", {}, priority=5)
        fast = queue.submit("probe", {}, priority=0)
        claim = queue.acquire("w1", pid=1, lease_seconds=LEASE)
        assert claim.job_id == fast
        queue.complete(fast, "w1", {})
        assert queue.acquire("w1", pid=1, lease_seconds=LEASE).job_id == slow

    def test_expired_lease_requeues_to_second_worker(self, store, clock):
        queue = make_queue(store, clock)
        job_id = queue.submit("probe", {"value": 9}, retries=1)
        queue.acquire("w1", pid=1, lease_seconds=LEASE)
        clock.advance(LEASE + 1)
        # Any reader requeues: w2's acquire reaps w1's expired lease and
        # then claims the very job it just requeued.
        claim = queue.acquire("w2", pid=2, lease_seconds=LEASE)
        assert claim is not None and claim.job_id == job_id
        assert claim.attempts == 2
        with pytest.raises(LeaseLostError):
            queue.complete(job_id, "w1", {"stale": True})
        queue.complete(job_id, "w2", {"value": 9})
        job = queue.poll([job_id])[job_id]
        assert job.status == "done"
        assert job.result == {"value": 9}
        snapshot = queue.snapshot()
        assert snapshot["leases_requeued_total"] == 1
        assert snapshot["leases_expired_total"] == 1

    def test_expiry_past_retry_budget_fails_terminally(self, store, clock):
        queue = make_queue(store, clock)
        job_id = queue.submit("probe", {}, retries=0)
        queue.acquire("w1", pid=1, lease_seconds=LEASE)
        clock.advance(LEASE + 1)
        job = queue.poll([job_id])[job_id]
        assert job.status == "failed"
        assert job.expired is True
        assert job.attempts == 1
        assert "lease expired" in job.error

    def test_error_within_budget_requeues_then_fails(self, store, clock):
        queue = make_queue(store, clock)
        job_id = queue.submit("probe", {}, retries=1)
        queue.acquire("w1", pid=1, lease_seconds=LEASE)
        queue.error(job_id, "w1", "boom one")
        job = queue.poll([job_id])[job_id]
        assert job.status == "queued"
        assert job.attempt_errors == ["boom one"]
        queue.acquire("w2", pid=2, lease_seconds=LEASE)
        queue.error(job_id, "w2", "boom two")
        job = queue.poll([job_id])[job_id]
        assert job.status == "failed"
        assert job.expired is False
        assert job.error == "boom two"
        assert job.attempts == 2

    def test_renew_extends_the_deadline(self, store, clock):
        queue = make_queue(store, clock)
        job_id = queue.submit("probe", {}, retries=1)
        queue.acquire("w1", pid=1, lease_seconds=LEASE)
        clock.advance(LEASE - 2)
        deadline = queue.renew(job_id, "w1", LEASE)
        assert deadline == clock.now + LEASE
        clock.advance(LEASE - 2)
        assert queue.poll([job_id])[job_id].status == "leased"
        clock.advance(3)
        assert queue.poll([job_id])[job_id].status == "queued"
        with pytest.raises(LeaseLostError):
            queue.renew(job_id, "w1", LEASE)

    def test_independent_queue_instances_converge(self, store, clock):
        """Two FleetQueue objects sharing a directory see one state."""
        q1 = make_queue(store, clock, reader_id="r1")
        q2 = make_queue(store, clock, reader_id="r2")
        job_id = q1.submit("probe", {"value": 3}, retries=1)
        assert q1.acquire("w1", pid=1, lease_seconds=LEASE).job_id == job_id
        # No double ownership: a second worker through a second instance
        # finds nothing queued while the lease is live.
        assert q2.acquire("w2", pid=2, lease_seconds=LEASE) is None
        clock.advance(LEASE + 1)
        assert q2.acquire("w2", pid=2, lease_seconds=LEASE).job_id == job_id
        with pytest.raises(LeaseLostError):
            q1.complete(job_id, "w1", {"stale": True})
        q2.complete(job_id, "w2", {"value": 3})
        assert q1.poll([job_id])[job_id].result == {"value": 3}

    def test_snapshot_counts_and_tenant_depth(self, store, clock):
        queue = make_queue(store, clock)
        queue.submit("probe", {}, tenant="acme")
        queue.submit("probe", {}, tenant="acme")
        running = queue.submit("probe", {}, tenant="zeta")
        queue.acquire("w1", pid=1, lease_seconds=LEASE)  # leases first acme job
        snapshot = queue.snapshot()
        assert snapshot["backend"] == "fleet"
        assert snapshot["workers_live"] == 1
        assert snapshot["leases_held"] == 1
        assert snapshot["jobs_queued"] == 2
        assert snapshot["queue_depth"] == {"acme": 2, "zeta": 1}
        assert running in queue.poll()

    def test_busy_worker_stays_live_while_renewing(self, store, clock):
        # The worker defaults: lease 30 s, heartbeat 10 s, TTL 3 x 10 + 30.
        ttl = 60.0
        queue = make_queue(store, clock)
        job_id = queue.submit("probe", {})
        queue.announce("w1", pid=1, ttl=ttl)
        queue.acquire("w1", pid=1, lease_seconds=30.0, worker_ttl=ttl)
        for _ in range(8):  # 80 s on one job, longer than the TTL
            clock.advance(10.0)
            queue.renew(job_id, "w1", 30.0, worker_ttl=ttl)
        snapshot = queue.snapshot()
        assert (snapshot["workers_live"], snapshot["leases_held"]) == (1, 1)
        assert queue.poll([job_id])[job_id].status == "leased"
        queue.complete(job_id, "w1", {})
        clock.advance(ttl - 1.0)
        assert queue.snapshot()["workers_live"] == 1
        clock.advance(2.0)  # one TTL after the last renewal, no heartbeat
        assert queue.snapshot()["workers_live"] == 0

    def test_claim_counts_live_workers_on_this_host(self, store, clock):
        queue = make_queue(store, clock)
        remote = make_queue(store, clock, reader_id="remote")
        remote.host = "elsewhere"
        queue.announce("expired", pid=9, ttl=5.0)
        clock.advance(6.0)
        assert queue.acquire("w2", pid=2, lease_seconds=LEASE) is None
        remote.announce("remote", pid=3, ttl=60.0)
        with open(os.path.join(fleet_dir(store), "leases.jsonl"), "a",
                  encoding="utf-8") as handle:  # written before hosts existed
            handle.write(json.dumps({
                "event": "heartbeat", "worker": "legacy", "pid": 4,
                "deadline": clock.now + 60.0, "ts": clock.now}) + "\n")
        queue.submit("probe", {})
        claim = queue.acquire("w1", pid=1, lease_seconds=LEASE)
        assert claim.host_workers == 2  # w1 and w2
        assert queue.snapshot()["workers_live"] == 4

    def test_fleet_snapshot_none_without_fleet_dir(self, store):
        assert fleet_snapshot(store) is None
        assert not os.path.isdir(fleet_dir(store))


class FleetLeaseMachine(RuleBasedStateMachine):
    """Hypothesis model of the lease protocol.

    The machine interleaves every queue operation (including time advancing
    past lease deadlines) and checks the fleet's two invariants after each
    step; claims are deliberately kept around after they go stale so that
    late ``renew`` / ``complete`` / ``error`` calls exercise the
    :class:`LeaseLostError` ownership checks.
    """

    WORKERS = ("w1", "w2", "w3")

    def __init__(self) -> None:
        super().__init__()
        self.tmp = tempfile.mkdtemp(prefix="repro_fleet_hyp_")
        self.clock = FakeClock()
        self.queue = FleetQueue(os.path.join(self.tmp, "store"),
                                clock=self.clock, reader_id="machine")
        self.retries = {}
        self.completed_by = {}
        self.claims = []

    def teardown(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    def _claim(self, index):
        return self.claims[index % len(self.claims)]

    @rule(retries=st.integers(0, 2), priority=st.integers(0, 2))
    def submit(self, retries, priority):
        job_id = self.queue.submit("probe", {}, retries=retries,
                                   priority=priority)
        self.retries[job_id] = retries

    @rule(worker=st.sampled_from(WORKERS))
    def acquire(self, worker):
        claim = self.queue.acquire(worker, pid=1, lease_seconds=LEASE)
        if claim is not None:
            assert claim.job_id in self.retries
            job = self.queue.poll([claim.job_id])[claim.job_id]
            assert job.status == "leased" and job.owner == worker
            self.claims.append((worker, claim.job_id))

    @rule(seconds=st.floats(0.1, LEASE * 1.5))
    def advance_time(self, seconds):
        self.clock.advance(seconds)

    @precondition(lambda self: self.claims)
    @rule(index=st.integers(0, 64))
    def renew(self, index):
        worker, job_id = self._claim(index)
        try:
            self.queue.renew(job_id, worker, LEASE)
        except LeaseLostError:
            job = self.queue.poll([job_id])[job_id]
            assert job.owner != worker or job.status != "leased"
        else:
            job = self.queue.poll([job_id])[job_id]
            assert job.status == "leased" and job.owner == worker

    @precondition(lambda self: self.claims)
    @rule(index=st.integers(0, 64))
    def complete(self, index):
        worker, job_id = self._claim(index)
        try:
            self.queue.complete(job_id, worker, {"by": worker})
        except LeaseLostError:
            job = self.queue.poll([job_id])[job_id]
            assert job.owner != worker or job.status != "leased"
        else:
            # No double ownership: only one publish can ever succeed.
            assert job_id not in self.completed_by
            self.completed_by[job_id] = worker
            assert self.queue.poll([job_id])[job_id].status == "done"

    @precondition(lambda self: self.claims)
    @rule(index=st.integers(0, 64))
    def error(self, index):
        worker, job_id = self._claim(index)
        try:
            self.queue.error(job_id, worker, "induced")
        except LeaseLostError:
            job = self.queue.poll([job_id])[job_id]
            assert job.owner != worker or job.status != "leased"
        else:
            assert self.queue.poll([job_id])[job_id].status in (
                "queued", "failed")

    @rule()
    def reap_via_poll(self):
        self.queue.poll()

    @invariant()
    def no_lost_jobs_and_budgets_hold(self):
        state = self.queue.poll()
        assert set(self.retries) == set(state)
        for job_id, job in state.items():
            assert job.status in ("queued", "leased", "done", "failed")
            assert not (job.done and job.failed)
            assert job.attempts <= self.retries[job_id] + 1
            if job.failed:
                assert job.attempts == self.retries[job_id] + 1
            if job.status == "leased":
                assert job.owner in self.WORKERS
            if job_id in self.completed_by:
                assert job.status == "done"
                assert job.result == {"by": self.completed_by[job_id]}


FleetLeaseMachine.TestCase.settings = settings(
    max_examples=20, stateful_step_count=25, deadline=None)
TestFleetLeaseInvariants = FleetLeaseMachine.TestCase


class TestFleetBackend:
    """The ExecutionBackend adapter over real (threaded) workers."""

    def _serve(self, store, max_jobs):
        thread = threading.Thread(
            target=run_worker, args=(store,),
            kwargs={"max_jobs": max_jobs, "lease_seconds": 5.0,
                    "poll_interval": 0.01},
            daemon=True)
        thread.start()
        return thread

    def test_batch_round_trips_in_order(self, store):
        backend = FleetBackend(store, poll_interval=0.01)
        thread = self._serve(store, max_jobs=4)
        metrics = ServiceMetrics()
        results = backend.run(probe_job, [{"value": i} for i in range(4)],
                              metrics=metrics)
        thread.join(timeout=30)
        assert [r["value"] for r in results] == [0, 1, 2, 3]
        assert metrics.failures == 0 and metrics.retries == 0
        snapshot = fleet_snapshot(store)
        assert snapshot["jobs_done"] == 4
        assert snapshot["jobs_failed"] == 0

    def test_terminal_failure_raises_and_counts(self, store):
        backend = FleetBackend(store, poll_interval=0.01)
        thread = self._serve(store, max_jobs=2)  # two attempts, then exit
        metrics = ServiceMetrics()
        with pytest.raises(RuntimeError, match="induced"):
            backend.run(probe_job, [{"fail": "induced"}], retries=1,
                        metrics=metrics)
        thread.join(timeout=30)
        assert metrics.failures == 1
        assert metrics.retries == 1  # second attempt consumed the budget
        job = FleetQueue(store).poll().popitem()[1]
        assert job.status == "failed" and job.attempts == 2

    def test_tenant_is_stamped_on_submitted_jobs(self, store):
        backend = FleetBackend(store, poll_interval=0.01)
        backend.tenant = "acme"
        thread = self._serve(store, max_jobs=1)
        backend.run(probe_job, [{"value": 1}])
        thread.join(timeout=30)
        job = FleetQueue(store).poll().popitem()[1]
        assert job.tenant == "acme"

    def test_unregistered_callable_is_rejected(self, store):
        backend = FleetBackend(store)
        with pytest.raises(ValueError, match="no registered fleet job kind"):
            backend.run(lambda payload: payload, [{"value": 1}])

    def test_empty_batch_is_a_no_op(self, store):
        backend = FleetBackend(store)
        assert backend.run(probe_job, []) == []
        snapshot = fleet_snapshot(store)
        assert snapshot["jobs_queued"] == 0
        assert snapshot["jobs_done"] == 0

    def test_registered_kinds_cover_scheduler_and_repair(self):
        assert kind_for(execute_resolved).name == "scan"
        assert kind_for(execute_mega_group).name == "mega"
        assert kind_for(execute_repair).name == "repair"
        assert kind_for(probe_job).name == "probe"

    def test_repair_payload_carries_its_resolution(self, tmp_path):
        # The worker must not re-read the checkpoint: the wire payload alone
        # rebuilds the submitter's resolution, key and output path.
        ckpt = _save_tiny(tmp_path / "m.npz")
        item = dataclasses.replace(
            resolve_repair(RepairRequest(scan=ScanRequest(checkpoint=ckpt,
                                                          **TINY),
                                         strategy="prune")),
            trace_id="a" * 16, parent_span_id="b" * 12)
        kind = kind_for(execute_repair)
        wire = json.loads(json.dumps(kind.encode(item)))
        os.remove(ckpt)
        assert kind.decode(wire) == item


class TestFleetMegaPlacement:
    """A mega group is one fleet job: it runs on a worker, not the submitter."""

    def test_mega_group_runs_on_the_worker(self, tmp_path):
        requests = [ScanRequest(checkpoint=_save_tiny(tmp_path / f"m{seed}.npz",
                                                      seed=seed),
                                inversion_mode="mega", **TINY)
                    for seed in (0, 1)]
        inline = ScanScheduler(backend="inline", telemetry=False).scan(requests)
        store = str(tmp_path / "store")
        worker = _spawn_worker(store, "--poll-interval", "0.05",
                               "--max-jobs", "1")
        try:
            fleet = ScanScheduler(store=open_store(store),
                                  backend="fleet").scan(requests)
            assert worker.wait(timeout=120) == 0
        finally:
            if worker.poll() is None:
                worker.kill()
                worker.wait(timeout=10)
        assert [record.worker_pid for record in fleet] == [worker.pid] * 2
        assert [_verdict(record) for record in fleet] == \
            [_verdict(record) for record in inline]
        assert fleet_snapshot(store)["jobs_done"] == 1


class TestKillWorkerMidScan:
    """A SIGKILLed worker's lease expires, requeues, and a survivor finishes."""

    def _spawn_worker(self, store):
        return _spawn_worker(store, "--lease-seconds", "0.6",
                             "--poll-interval", "0.05", "--max-jobs", "1")

    def _wait_for(self, check, timeout, message):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            value = check()
            if value is not None:
                return value
            time.sleep(0.05)
        pytest.fail(message)

    def test_killed_worker_job_requeues_and_survivor_completes(self, store):
        queue = FleetQueue(store, reader_id="test")
        job_id = queue.submit("probe", {"sleep": 2.0, "value": 42},
                              retries=1)
        victim = self._spawn_worker(store)
        survivor = None
        try:
            owner = self._wait_for(
                lambda: queue.poll([job_id])[job_id].owner, timeout=30,
                message="worker never leased the probe job")
            victim.send_signal(signal.SIGKILL)
            victim.wait(timeout=10)
            survivor = self._spawn_worker(store)
            job = self._wait_for(
                lambda: (queue.poll([job_id])[job_id]
                         if queue.poll([job_id])[job_id].status == "done"
                         else None),
                timeout=30,
                message="job never completed after the worker was killed")
        finally:
            for proc in (victim, survivor):
                if proc is not None and proc.poll() is None:
                    proc.kill()
                    proc.wait(timeout=10)
        assert job.attempts == 2  # killed attempt + surviving attempt
        assert job.result["value"] == 42
        assert job.result["pid"] == survivor.pid
        assert job.result["pid"] != victim.pid
        assert owner != ""  # the victim really held the lease first
        snapshot = fleet_snapshot(store)
        assert snapshot["leases_requeued_total"] >= 1
        assert snapshot["leases_expired_total"] >= 1
        assert snapshot["jobs_done"] == 1
        assert snapshot["jobs_failed"] == 0

    def test_worker_cli_reports_jobs_executed(self, store):
        queue = FleetQueue(store, reader_id="test")
        queue.submit("probe", {"value": 7})
        worker = self._spawn_worker(store)
        assert worker.wait(timeout=60) == 0
        job = queue.poll().popitem()[1]
        assert job.status == "done"
        assert job.result["value"] == 7
        assert job.result["pid"] == worker.pid


class TestExpiredLeaseBackendSemantics:
    """Exhausted-by-expiry batches surface as JobTimeoutError, like the pool."""

    def test_expired_job_raises_job_timeout(self, store, clock):
        backend = FleetBackend(store, poll_interval=0.01)
        backend.queue = make_queue(store, clock, reader_id="submitter")
        # A second instance for the test's own reads/acquires, as a real
        # ghost worker would have (instances are thread-safe, but separate
        # ones model separate processes).
        queue = make_queue(store, clock, reader_id="ghost")
        # Lease the lone job, then let it expire with no retries left: the
        # submitter's own poll reaps it into a terminal expiry failure.
        result = {}

        def submit_and_wait():
            try:
                backend.run(probe_job, [{"value": 1}], retries=0)
            except Exception as error:  # noqa: BLE001 - captured for asserts
                result["error"] = error

        thread = threading.Thread(target=submit_and_wait, daemon=True)
        thread.start()
        self._wait_queue(queue)
        queue.acquire("ghost", pid=1, lease_seconds=LEASE)
        clock.advance(LEASE + 1)
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert isinstance(result.get("error"), JobTimeoutError)
        assert "lease expired" in str(result["error"])

    @staticmethod
    def _wait_queue(queue, timeout=10.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if queue.poll():
                return
            time.sleep(0.01)
        raise AssertionError("job never appeared in the fleet queue")
