"""The two workloads: inputs, set-up, the measured closed loop, output checks.

Each workload drives the program only through the surfaces a user has —
``python -m repro`` subprocesses and the HTTP API of ``repro serve`` — with
service defaults, program telemetry at its default and the BLAS thread
variables left as found.  Load stays within two cores: two fleet workers,
at most two client threads.

* ``cli_hit`` — one caller in a closed loop running ``repro scan`` on
  copies of the four full-size zoo models against a store padded with
  :data:`STORE_RECORDS` records; every answer is a cache hit, so start-up,
  imports, checkpoint load, fingerprinting and store replay/lookup do all
  the work.
* ``http_fleet`` — two client threads in a closed loop against
  ``repro serve --backend fleet`` with two ``repro worker`` processes:
  ``POST /v1/scans`` (``strategy: fastest``), poll, fetch, and scrape
  ``/metrics`` every few jobs.  Each fresh variant of the narrow zoo pair is
  followed by repeats of it, so cache hits interleave with fresh scans and
  store appends.

A workload runs in four steps.  ``prepare`` makes the inputs from the seed
(checkpoints, the padded store) and ``stage`` copies the padded store for
one set-up; neither is timed.  ``setup`` is the program's own start and is
what ``setup_s`` times: opening (replaying) the store for ``cli_hit``,
starting the server and workers until they are ready for ``http_fleet``.
``measure`` runs the closed loop.  A round covers its zoo models the same
number of times and a run always finishes its last round, so the
verdict-quality metrics see the same mix on every seed.
"""

from __future__ import annotations

import ctypes
import http.client
import json
import os
import random
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import zoo
from repro.service.fleet import fleet_snapshot
from repro.service.records import ScanRecord
from repro.service.store import ShardedResultStore

HERE = os.path.dirname(os.path.abspath(__file__))
LAUNCHER = os.path.join(HERE, "launch.py")
#: Fleet workers behind ``repro serve --backend fleet``.
FLEET_WORKERS = 2
#: Processes that execute scans, per workload (for the busy fraction).
EXECUTORS = {"http_fleet": FLEET_WORKERS}
#: Records a store is padded with: the size at which a ``/metrics`` rebuild
#: was measured at 0.55 s (ROADMAP), so the O(store) paths do visible work.
STORE_RECORDS = 5000
#: ``cli_hit`` serves the full-size models: two architectures and two
#: checkpoint sizes, two ground truths each.
CLI_MODELS = ("bd_cnn_t0", "bd_vgg_t6", "clean_cnn", "clean_vgg")
#: ``http_fleet`` scans the narrow pair (one implanted, one clean), whose
#: fresh scans are cheap enough for :data:`HTTP_MIN_ROUNDS` rounds per run.
HTTP_MODELS = ("bd_tiny_t3", "clean_tiny")
#: Repeats that follow each fresh request.  With two clients, about one
#: repeat per fresh request waits behind it in the single dispatcher; five
#: leave four answers in six fast, so the median falls among the cache hits.
HTTP_REPEATS = 5
#: Minimum ``http_fleet`` rounds per run: 8 fresh requests (16 fleet jobs,
#: as the implanted model escalates to NC and TABOR) among 48.  Answers
#: form three clusters: cache hits, clean fresh scans with their waiting
#: repeat (8), implanted ones with theirs (8).  The tail percentile is the
#: 11th-slowest answer, so it lands three answers inside the clean cluster;
#: five rounds would put it on the edge between the two slow clusters.
HTTP_MIN_ROUNDS = 4
#: Rounds of fresh variants prepared per run, as a multiple of the
#: minimum; a run that uses them all stops early and says so.
HTTP_ROUND_POOL = 2
#: HTTP clients scrape ``/metrics`` after this many of their own jobs:
#: eight scrapes over the 48 jobs of a minimal run.
SCRAPE_EVERY = 6
#: Minimum rounds of the eight ``cli_hit`` scans: at least 16 samples.
CLI_MIN_ROUNDS = 2
POLL_SECONDS = 0.02
FAST_POLL_SECONDS = 0.002
FAST_POLL_WINDOW = 0.5
CLK_TCK = os.sysconf("SC_CLK_TCK")
PR_SET_PDEATHSIG = 1


@dataclass
class Context:
    """Where a pass runs and how it starts the program."""

    bases: List[zoo.Base]
    seed: int
    env: Dict[str, str]
    work: str
    #: Set for the traced pass: subprocesses start through the launcher.
    trace_dir: Optional[str] = None
    #: Include one unreadable checkpoint in the traffic (self-test).
    corrupt: bool = False
    #: Rounds are shrunk to one zoo model (self-test).
    tiny: bool = False
    #: Overrides the workload's minimum number of rounds.
    min_rounds: Optional[int] = None
    #: Time one ``repro metrics`` run after each ``cli_hit`` round.
    scrape: bool = False

    def repro(self, args: List[str], role: str = "cli") -> List[str]:
        if self.trace_dir is None:
            return [sys.executable, "-m", "repro", *args]
        return [sys.executable, LAUNCHER, "--trace-dir", self.trace_dir,
                "--role", role, "--", *args]

    def round_bases(self, rng: random.Random, names: Tuple[str, ...]
                    ) -> List[zoo.Base]:
        """One round's zoo models (``names`` only), seed-shuffled."""
        bases = [b for b in self.bases if b.name in names]
        rng.shuffle(bases)
        return bases[:1] if self.tiny else bases

    def rounds_floor(self, default: int) -> int:
        return default if self.min_rounds is None else self.min_rounds

    def stage_store(self, padded: str) -> str:
        """A fresh copy of the padded store ``padded`` for one set-up."""
        path = os.path.join(self.work, f"store-{len(os.listdir(self.work))}")
        shutil.copytree(padded, path)
        return path

    def corrupt_checkpoint(self) -> str:
        path = os.path.join(self.work, "corrupt.npz")
        with open(path, "wb") as handle:
            handle.write(b"PK\x03\x04 this is not a checkpoint")
        return path


@dataclass
class Tally:
    """What one measured loop observed."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    wall_s: float = 0.0
    latencies: List[float] = field(default_factory=list)
    scrapes: List[float] = field(default_factory=list)
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    positives: int = 0
    true_positives: int = 0
    negatives: int = 0
    true_negatives: int = 0
    #: Client-observed wall seconds of every request (traced coverage).
    request_walls: List[float] = field(default_factory=list)
    #: Mega-pool stats found on computed records (empty for batched scans).
    pools: List[dict] = field(default_factory=list)
    #: Fleet-log summary (``http_fleet`` only).
    fleet: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    lock: threading.Lock = field(default_factory=threading.Lock)

    def verdict(self, base: zoo.Base, flagged) -> None:
        flagged = {int(c) for c in flagged}
        with self.lock:
            if base.backdoored:
                self.positives += 1
                self.true_positives += int(base.target in flagged)
            else:
                self.negatives += 1
                self.true_negatives += int(not flagged)

    def fail(self, note: str, wrong: bool = False) -> None:
        with self.lock:
            if wrong:
                self.wrong += 1
            else:
                self.failed += 1
            if len(self.notes) < 10:
                self.notes.append(note)

    @property
    def completed(self) -> int:
        return self.attempted - self.failed - self.wrong


# ---------------------------------------------------------------------- #
# Processes
# ---------------------------------------------------------------------- #
def run_process(cmd: List[str], env: Dict[str, str], log_path: str
                ) -> Tuple[int, str, float, float]:
    """Run ``cmd`` to completion: (exit code, stdout, CPU s, peak RSS MB).

    CPU and peak RSS come from ``wait4`` and so include every descendant
    the process waited for.
    """
    with open(log_path, "ab") as log:
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                                stderr=log)
        out = proc.stdout.read().decode("utf-8", "replace")
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, out, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0)


def _die_with_parent() -> None:
    """Child-side: get SIGTERM if the benchmark process is killed."""
    ctypes.CDLL(None).prctl(PR_SET_PDEATHSIG, signal.SIGTERM)


class Service:
    """A long-lived program process (``serve`` or ``worker``)."""

    def __init__(self, cmd: List[str], env: Dict[str, str], log_path: str
                 ) -> None:
        self.log = open(log_path, "ab")
        self.proc = subprocess.Popen(cmd, env=env, stdout=self.log,
                                     stderr=self.log,
                                     preexec_fn=_die_with_parent)
        self.rss_mb = 0.0

    def cpu_s(self) -> float:
        """User+system CPU seconds so far (``/proc/<pid>/stat``)."""
        with open(f"/proc/{self.proc.pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / CLK_TCK

    def stop(self) -> int:
        """SIGINT, wait (killing after 60 s); records peak RSS."""
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGINT)
            deadline = time.monotonic() + 60.0
            while True:
                pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
                if pid:
                    self.proc.returncode = os.waitstatus_to_exitcode(status)
                    self.rss_mb = usage.ru_maxrss / 1024.0
                    break
                if time.monotonic() > deadline:
                    self.proc.kill()
                    _, status, usage = os.wait4(self.proc.pid, 0)
                    self.proc.returncode = os.waitstatus_to_exitcode(status)
                    self.rss_mb = usage.ru_maxrss / 1024.0
                    break
                time.sleep(0.02)
        self.log.close()
        return self.proc.returncode


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _populate(store_path: str, rows: List[dict]) -> None:
    """Write ``rows`` into a fresh sharded store through the store API."""
    store = ShardedResultStore(store_path)
    for row in rows:
        store.add(ScanRecord.from_dict(row))


def _scrape_cli(ctx: Context, store: str, tally: Tally) -> None:
    """Time one ``repro metrics`` over ``store`` (after each CLI round).

    Scrapes are not requests: they count in neither the request rate nor
    the CPU per request.  They always run untraced.
    """
    started = time.perf_counter()
    code, out, _, _ = run_process(
        [sys.executable, "-m", "repro", "metrics", "--store", store],
        ctx.env, os.path.join(ctx.work, "scrape.log"))
    elapsed = time.perf_counter() - started
    if code != 0 or "repro_" not in out:
        tally.fail(f"metrics scrape of {store} exited {code}", wrong=True)
    tally.scrapes.append(elapsed)


# ---------------------------------------------------------------------- #
# cli_hit
# ---------------------------------------------------------------------- #
class CliHit:
    """Cold ``repro scan`` processes, every one a cache hit."""

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.rng = random.Random(ctx.seed)
        self.bases = [b for b in ctx.bases if b.name in CLI_MODELS]

    def prepare(self) -> None:
        """Copies of the zoo models and a store padded with their verdicts."""
        self.copies = {}
        for base in self.bases:
            path = os.path.join(self.ctx.work,
                                f"{base.name}-{self.ctx.seed}.npz")
            shutil.copyfile(base.path, path)
            self.copies[base.name] = path
        self.padded = os.path.join(self.ctx.work, "padded")
        rows = zoo.filler_records(self.bases, STORE_RECORDS, self.ctx.seed)
        rows += [record for base in self.bases
                 for record in base.records.values()]
        _populate(self.padded, rows)

    def stage(self) -> None:
        self.store = self.ctx.stage_store(self.padded)

    def setup(self) -> None:
        """The program opens the store: every shard is replayed."""
        ShardedResultStore(self.store)

    def _scan(self, base: Optional[zoo.Base], path: str, detector: str,
              tally: Tally) -> None:
        args = ["scan", path, "--detector", detector, "--seed",
                str(zoo.DATA_SEED), "--store", self.store, "--json"]
        tally.attempted += 1
        started = time.perf_counter()
        code, out, cpu, rss = run_process(self.ctx.repro(args), self.ctx.env,
                                          os.path.join(self.ctx.work,
                                                       "scan.log"))
        elapsed = time.perf_counter() - started
        tally.wall_s += elapsed
        tally.cpu_s += cpu
        tally.rss_mb = max(tally.rss_mb, rss)
        tally.request_walls.append(elapsed)
        if code != 0:
            tally.fail(f"scan {path} [{detector}] exited {code}")
            return
        record = json.loads(out)[0]
        expected = base.records[detector]["flagged_classes"]
        if not record.get("cache_hit") or \
                record["flagged_classes"] != expected:
            tally.fail(f"scan {path} [{detector}]: cache_hit="
                       f"{record.get('cache_hit')} flagged="
                       f"{record['flagged_classes']}, expected {expected}",
                       wrong=True)
            return
        tally.latencies.append(elapsed)
        tally.verdict(base, record["flagged_classes"])

    def measure(self, seconds: float) -> Tally:
        """Rounds of every (zoo model, detector) pair, one request at a time.

        ``wall_s`` sums the request processes only, so the optional
        ``repro metrics`` scrape between rounds is not charged to them.
        """
        tally = Tally()
        started = time.perf_counter()
        if self.ctx.corrupt:
            self._scan(None, self.ctx.corrupt_checkpoint(), "usb", tally)
        rounds, floor = 0, self.ctx.rounds_floor(CLI_MIN_ROUNDS)
        while rounds < floor or time.perf_counter() - started < seconds:
            pairs = [(base, detector)
                     for base in self.ctx.round_bases(self.rng, CLI_MODELS)
                     for detector in zoo.DETECTORS]
            self.rng.shuffle(pairs)
            for base, detector in pairs:
                self._scan(base, self.copies[base.name], detector, tally)
            if self.ctx.scrape:
                _scrape_cli(self.ctx, self.store, tally)
            rounds += 1
        return tally

    def teardown(self) -> float:
        return 0.0


# ---------------------------------------------------------------------- #
# http_fleet
# ---------------------------------------------------------------------- #
class _Client:
    """One keep-alive HTTP connection to the API."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=300)

    def call(self, method: str, path: str, body: Optional[dict] = None
             ) -> Tuple[int, bytes]:
        data = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if data else {}
        for attempt in range(2):
            try:
                self.conn.request(method, path, body=data, headers=headers)
                response = self.conn.getresponse()
                return response.status, response.read()
            except (ConnectionError, http.client.HTTPException):
                self.conn.close()
                self.conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                                       timeout=300)
                if attempt:
                    raise
        raise AssertionError("unreachable")

    def close(self) -> None:
        self.conn.close()


class HttpFleet:
    """Triage jobs through ``repro serve --backend fleet`` and two workers."""

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.rng = random.Random(ctx.seed)
        self.services: List[Service] = []
        self.min_rounds = ctx.rounds_floor(HTTP_MIN_ROUNDS)
        self.exhausted = False

    def prepare(self) -> None:
        """Seeded fresh variants of the narrow pair, and the padded store."""
        maker = zoo.Materializer(self.ctx.seed)
        self.fresh = [{base.name: maker.variant(
            base, os.path.join(self.ctx.work, f"{base.name}-r{r}.npz"))
            for base in self.ctx.bases if base.name in HTTP_MODELS}
            for r in range(HTTP_ROUND_POOL * self.min_rounds)]
        self.padded = os.path.join(self.ctx.work, "padded")
        _populate(self.padded, zoo.filler_records(
            self.ctx.bases, STORE_RECORDS, self.ctx.seed))

    def stage(self) -> None:
        self.store = self.ctx.stage_store(self.padded)

    def setup(self) -> None:
        """Start the API server and the fleet workers; wait until ready."""
        self.port = _free_port()
        self.services = [Service(
            self.ctx.repro(["serve", self.store, "--port", str(self.port),
                            "--backend", "fleet"], role="service"),
            self.ctx.env, os.path.join(self.ctx.work, "serve.log"))]
        for index in range(FLEET_WORKERS):
            self.services.append(Service(
                self.ctx.repro(["worker", self.store], role="service"),
                self.ctx.env,
                os.path.join(self.ctx.work, f"worker{index}.log")))
        self._wait_ready()

    def _wait_ready(self, timeout: float = 120.0) -> None:
        deadline = time.monotonic() + timeout
        client = _Client(self.port)
        try:
            while time.monotonic() < deadline:
                for service in self.services:
                    if service.proc.poll() is not None:
                        raise RuntimeError(f"{service.proc.args[:4]} exited "
                                           f"{service.proc.returncode} during "
                                           "set-up")
                try:
                    status, _ = client.call("GET", "/healthz")
                except OSError:
                    status = 0
                snapshot = fleet_snapshot(self.store) if status == 200 else None
                if snapshot and snapshot["workers_live"] >= FLEET_WORKERS:
                    return
                time.sleep(0.05)
        finally:
            client.close()
        raise RuntimeError("API server or fleet workers not ready in time")

    def _stream(self, seconds: float):
        """(base, checkpoint) requests: each variant, then its repeats.

        Rounds go on until ``seconds`` have passed and at least the
        minimum number of rounds ran, or the prepared variants run out.
        """
        if self.ctx.corrupt:
            yield None, self.ctx.corrupt_checkpoint()
        started = time.perf_counter()
        for index, fresh in enumerate(self.fresh):
            if index >= self.min_rounds and \
                    time.perf_counter() - started >= seconds:
                return
            for base in self.ctx.round_bases(self.rng, HTTP_MODELS):
                for _ in range(1 + HTTP_REPEATS):
                    yield base, fresh[base.name]
        self.exhausted = True

    def _job(self, client: _Client, base: Optional[zoo.Base], path: str,
             tally: Tally, answers: List[tuple]) -> None:
        started = time.perf_counter()
        status, body = client.call("POST", "/v1/scans", {
            "checkpoint": path, "seed": zoo.DATA_SEED, "strategy": "fastest"})
        if status != 202:
            tally.fail(f"POST /v1/scans {path} -> {status}")
            return
        job_id = json.loads(body)["job_id"]
        while True:
            status, body = client.call("GET", f"/v1/jobs/{job_id}")
            state = json.loads(body).get("status")
            if state in ("done", "failed"):
                break
            # Poll finely while a cache hit could still finish, so latency
            # is not quantized by the poll interval; back off afterwards.
            time.sleep(FAST_POLL_SECONDS
                       if time.perf_counter() - started < FAST_POLL_WINDOW
                       else POLL_SECONDS)
        status, body = client.call("GET", f"/v1/jobs/{job_id}/result")
        elapsed = time.perf_counter() - started
        payload = json.loads(body)
        with tally.lock:
            tally.request_walls.append(elapsed)
        if state != "done" or status != 200:
            tally.fail(f"job {job_id} on {path} ended {state}: "
                       f"{payload.get('error')}")
            return
        result = payload["result"]
        with tally.lock:
            tally.latencies.append(elapsed)
            tally.pools.extend(r["telemetry"]["pool"] for r in result["records"]
                               if r.get("telemetry", {}).get("pool"))
            answers.append((base, path, tuple(result["flagged_classes"]),
                            [stage["cache_hit"] for stage in
                             result["cost_breakdown"]["stages"]]))

    @staticmethod
    def _check(answers: List[tuple], tally: Tally) -> None:
        """Per checkpoint: one computed answer, hits after it, same verdict.

        The API dispatches jobs one at a time, so exactly one job per
        checkpoint computes its probe stage; every other job of the same
        checkpoint must be served from the store with the same verdict.
        """
        by_path: Dict[str, List[tuple]] = {}
        for answer in answers:
            by_path.setdefault(answer[1], []).append(answer)
        for path, group in by_path.items():
            computed = [a for a in group if not a[3][0]]
            repeats = [a for a in group if a[3][0]]
            if len(computed) != 1 or not all(all(a[3]) for a in repeats):
                for _ in group:
                    tally.fail(f"{path}: {len(computed)} computed answer(s), "
                               "expected 1 then cache hits", wrong=True)
                continue
            verdict = computed[0][2]
            for base, _, flagged, _ in group:
                if flagged != verdict:
                    tally.fail(f"repeat of {path} returned {flagged}, first "
                               f"{verdict}", wrong=True)
                else:
                    tally.verdict(base, flagged)

    def measure(self, seconds: float) -> Tally:
        tally = Tally()
        stream = self._stream(seconds)
        stream_lock = threading.Lock()
        answers: List[tuple] = []
        errors: List[BaseException] = []

        def client_loop() -> None:
            client = _Client(self.port)
            jobs = 0
            try:
                while True:
                    with stream_lock:
                        item = next(stream, None)
                        if item is None:
                            return
                        tally.attempted += 1
                    self._job(client, item[0], item[1], tally, answers)
                    jobs += 1
                    if jobs % SCRAPE_EVERY == 0:
                        started = time.perf_counter()
                        status, body = client.call("GET", "/metrics")
                        elapsed = time.perf_counter() - started
                        if status != 200 or b"repro_" not in body:
                            tally.fail(f"/metrics -> {status}", wrong=True)
                        with tally.lock:
                            tally.scrapes.append(elapsed)
            except BaseException as error:  # reported by the main thread
                errors.append(error)
            finally:
                client.close()

        cpu_before = sum(service.cpu_s() for service in self.services)
        started = time.perf_counter()
        threads = [threading.Thread(target=client_loop) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        tally.wall_s = time.perf_counter() - started
        tally.cpu_s = sum(service.cpu_s() for service in self.services) \
            - cpu_before
        if errors:
            raise errors[0]
        self._check(answers, tally)
        if self.exhausted:
            tally.notes.append("used every prepared variant before the "
                               "measuring time was over")
        snapshot = fleet_snapshot(self.store) or {}
        if snapshot.get("jobs_failed") or snapshot.get("jobs_queued") or \
                snapshot.get("leases_held"):
            tally.fail(f"fleet not drained cleanly: {snapshot}", wrong=True)
        return tally

    def teardown(self) -> float:
        rss = 0.0
        for service in reversed(self.services):
            service.stop()
            rss = max(rss, service.rss_mb)
        self.services = []
        return rss

    def fleet_log(self) -> Dict[str, float]:
        """Per fleet job: submit->acquire and acquire->done, from the log."""
        directory = os.path.join(self.store, "fleet")
        events: Dict[str, Dict[str, float]] = {}
        requeues = 0
        for name in ("jobs.jsonl", "leases.jsonl"):
            path = os.path.join(directory, name)
            if not os.path.exists(path):
                continue
            with open(path, encoding="utf-8") as handle:
                for line in handle:
                    event = json.loads(line)
                    kind, job = event.get("event"), event.get("job")
                    if kind == "requeue":
                        requeues += 1
                    if job and kind in ("submit", "acquire", "done"):
                        events.setdefault(job, {}).setdefault(kind, event["ts"])
        done = [e for e in events.values()
                if {"submit", "acquire", "done"} <= set(e)]
        jobs = max(1, len(done))
        return {"jobs": len(done), "requeues": requeues,
                "queue_wait_s": sum(e["acquire"] - e["submit"]
                                    for e in done) / jobs,
                "exec_s": sum(e["done"] - e["acquire"] for e in done) / jobs}


WORKLOADS = {"cli_hit": CliHit, "http_fleet": HttpFleet}
