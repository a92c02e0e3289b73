"""Execution backends: where a planned batch of jobs actually runs.

The planning core (:mod:`repro.service.planning`) decides *what* to run;
an :class:`ExecutionBackend` decides *where*.  Three implementations ship:

* :class:`InlineBackend` — serial, in-process: jobs run in queue order in
  the caller and retry in place (the test suite's default; a per-job
  timeout cannot be enforced there);
* :class:`PoolBackend` — one forked child per job attempt, at most
  ``workers`` at once: an attempt still running at its deadline is killed,
  and a failed, killed or crashed attempt is retried in a fresh child.
  Each child sizes its BLAS pool to its share of the cores
  (:func:`repro.nn.blas.share_cores` over the children that can run at
  once), so side-by-side attempts do not oversubscribe the host;
* :class:`~repro.service.fleet.FleetBackend` — independent worker
  processes pulling from a store-adjacent shared queue with lease-based
  ownership (imported lazily via :func:`create_backend` so the scheduler
  never pays for it).

All three satisfy the same contract — ``run(fn, payloads)`` returns
``[fn(p) for p in payloads]`` in order, retrying failed jobs up to the
budget and raising the last error once it is spent — so
:class:`~repro.service.scheduler.ScanScheduler`, the repair driver, the
watch daemon, and the HTTP API dispatch through a backend without caring
which one the operator selected (``--backend inline|pool|fleet``).  Retry
and timeout policy lives here and in the fleet's lease tables, nowhere else.
"""

from __future__ import annotations

import math
import multiprocessing
import pickle
import time
from multiprocessing.connection import Connection, wait
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..nn.blas import share_cores
from ..utils.logging import get_logger
from .planning import JobQueue, JobTimeoutError, QueuedJob, ServiceMetrics

__all__ = ["ExecutionBackend", "InlineBackend", "PoolBackend",
           "create_backend", "BACKEND_NAMES"]

_LOG = get_logger("repro.service.backends")

#: Backend specs accepted by :func:`create_backend` (and the CLI flag).
BACKEND_NAMES = ("inline", "pool", "fleet")

#: Pool children are forked, so a job function never has to pickle; only
#: its result (or exception) crosses the pipe back.
_FORK = multiprocessing.get_context("fork")


class ExecutionBackend:
    """Contract every execution backend implements.

    A backend turns a sequence of payloads and a module-level function into
    results, preserving order, with bounded retries.  It owns no
    resolve/cache logic — callers hand it already-planned work.
    """

    #: Short identifier rendered in logs, metrics, and ``repro report``.
    name = "abstract"

    def run(self, fn: Callable[[Any], Any], payloads: Sequence[Any],
            timeout: Optional[float] = None, retries: int = 0,
            metrics: Optional[ServiceMetrics] = None) -> List[Any]:
        """Apply ``fn`` to every payload, preserving order.

        Args:
            fn: Module-level callable (the fleet looks it up by its
                registered job kind).
            payloads: Job inputs; results come back in the same order.
            timeout: Per-attempt wall-clock budget in seconds (``None``
                disables it; inline execution cannot be preempted, so only
                the pool enforces it).
            retries: Retry budget per job — a failed job is re-queued up to
                this many times before its last error fails the batch.
            metrics: Optional counters to update (``retries`` /
                ``failures``).

        Returns:
            ``[fn(p) for p in payloads]``.
        """
        raise NotImplementedError

    def __repr__(self) -> str:
        """``<BackendClass 'name'>`` for logs and debugging."""
        return f"<{type(self).__name__} {self.name!r}>"


def _queued(payloads: Sequence[Any]) -> Tuple[JobQueue, List[Any]]:
    """A FIFO queue of ``(index, payload)`` jobs and a result slot per job."""
    queue = JobQueue()
    for index, payload in enumerate(payloads):
        queue.push((index, payload))
    return queue, [None] * len(queue)


def _requeue(queue: JobQueue, job: QueuedJob, error: BaseException,
             retries: int, metrics: ServiceMetrics) -> bool:
    """Requeue a failed attempt while budget remains (True), else count it."""
    if job.attempts < retries:
        _LOG.warning("Retrying job %d after %s", job.payload[0], error)
        metrics.retries += 1
        queue.requeue(job)
        return True
    metrics.failures += 1
    return False


class InlineBackend(ExecutionBackend):
    """Serial in-process execution: the deterministic fallback path.

    Jobs run in queue order inside the calling process — bit-identical to
    the pool path (children fork with the same seeds), just without the
    process hop, which also means a per-job ``timeout`` cannot be enforced.
    """

    name = "inline"

    def run(self, fn: Callable[[Any], Any], payloads: Sequence[Any],
            timeout: Optional[float] = None, retries: int = 0,
            metrics: Optional[ServiceMetrics] = None) -> List[Any]:
        """Run every payload inline, in queue order (see the base contract)."""
        queue, results = _queued(payloads)
        metrics = metrics if metrics is not None else ServiceMetrics()
        while queue:
            job = queue.pop()
            try:
                results[job.payload[0]] = fn(job.payload[1])
            except Exception as error:
                if _requeue(queue, job, error, int(retries), metrics):
                    continue
                raise
        return results


def _attempt(sender: Connection, fn: Callable[[Any], Any], payload: Any,
             executors: int) -> None:
    """Child entry: run one attempt, send ``(error, result)`` up the pipe.

    The child first sizes its BLAS pool to one of ``executors`` shares of
    the host's cores.
    """
    share_cores(executors)
    try:
        sender.send((None, fn(payload)))
    # Process boundary: the error is forwarded to the parent, which retries
    # or re-raises it; one that cannot be pickled becomes a RuntimeError.
    except Exception as error:  # repro-lint: disable=exception-hygiene
        try:
            pickle.loads(pickle.dumps(error))
        except Exception:  # repro-lint: disable=exception-hygiene
            error = RuntimeError(f"{type(error).__name__}: {error}")
        sender.send((error, None))


def _stop(receiver: Connection, child: Any) -> None:
    """Kill ``child`` (a no-op once it has exited), reap it, close its pipe."""
    child.kill()
    child.join()
    receiver.close()


class PoolBackend(ExecutionBackend):
    """Forked-child execution: a fresh, killable process per job attempt.

    Args:
        workers: Children running at once (at least one).

    Each attempt sends its result, or its exception, back over a one-way
    pipe; :meth:`run` raises the exception again with its own type.  A
    child keeps ``1 / min(workers, jobs in the batch)`` of the host's cores
    for its BLAS pool, so a single-job batch keeps them all.  An
    attempt still running at its ``timeout`` is killed, and a failed, killed
    or crashed attempt reruns in a fresh child while the ``retries`` budget
    lasts.  Children still running when the batch fails are killed before
    :meth:`run` returns, so no work outlives the call.
    """

    def __init__(self, workers: int) -> None:
        self.workers = int(workers)
        self.name = "pool"

    def run(self, fn: Callable[[Any], Any], payloads: Sequence[Any],
            timeout: Optional[float] = None, retries: int = 0,
            metrics: Optional[ServiceMetrics] = None) -> List[Any]:
        """Run each attempt in a fresh, killable child (see the base contract)."""
        queue, results = _queued(payloads)
        metrics = metrics if metrics is not None else ServiceMetrics()
        budget = math.inf if timeout is None else float(timeout)
        slots = max(1, self.workers)
        executors = min(slots, len(queue))
        #: Receiving pipe end of each live attempt -> (job, child, deadline).
        running: Dict[Connection, Tuple[QueuedJob, Any, float]] = {}
        try:
            while queue or running:
                while queue and len(running) < slots:
                    job = queue.pop()
                    receiver, sender = _FORK.Pipe(duplex=False)
                    child = _FORK.Process(
                        target=_attempt,
                        args=(sender, fn, job.payload[1], executors))
                    child.start()
                    sender.close()
                    running[receiver] = (job, child, time.monotonic() + budget)
                first = min(deadline for _, _, deadline in running.values())
                ready = wait(list(running), timeout=None if timeout is None
                             else max(0.0, first - time.monotonic()))
                now = time.monotonic()
                for receiver, (job, child, deadline) in list(running.items()):
                    if receiver in ready:
                        try:
                            error, result = receiver.recv()
                        except EOFError:  # the child died without answering
                            child.join()
                            error = RuntimeError(
                                f"job {job.payload[0]} worker died without "
                                f"a result (exit code {child.exitcode}).")
                    elif now >= deadline:
                        error = JobTimeoutError(
                            f"job {job.payload[0]} exceeded {budget:.1f}s "
                            f"and was killed (attempt {job.attempts + 1}).")
                    else:
                        continue
                    del running[receiver]
                    _stop(receiver, child)
                    if error is None:
                        results[job.payload[0]] = result
                    elif not _requeue(queue, job, error, int(retries),
                                      metrics):
                        raise error
        finally:
            for receiver, (_, child, _) in running.items():
                _stop(receiver, child)
        return results


def create_backend(spec: str, workers: int = 0,
                   store_path: Optional[str] = None,
                   **fleet_options: Any) -> ExecutionBackend:
    """Build the backend a ``--backend`` spec names.

    Args:
        spec: One of :data:`BACKEND_NAMES` (``inline`` / ``pool`` /
            ``fleet``).
        workers: Pool size for the ``pool`` backend (ignored otherwise).
        store_path: Store path the ``fleet`` backend coordinates through
            (required for ``fleet``: its job/lease tables live next to the
            store so every worker sharing the filesystem sees them).
        **fleet_options: Forwarded to
            :class:`~repro.service.fleet.FleetBackend` (``lease_seconds``,
            ``poll_interval``, ``tenant``, ...).

    Returns:
        A ready :class:`ExecutionBackend`.

    Raises:
        ValueError: Unknown spec, or ``fleet`` without a ``store_path``.
    """
    kind = str(spec).lower()
    if kind == "inline":
        return InlineBackend()
    if kind == "pool":
        return PoolBackend(workers=workers)
    if kind == "fleet":
        if not store_path:
            raise ValueError(
                "--backend fleet needs a store path: the fleet queue lives "
                "next to the store so workers can find it.")
        from .fleet import FleetBackend
        return FleetBackend(store_path, **fleet_options)
    raise ValueError(f"Unknown backend '{spec}'. "
                     f"Available: {', '.join(BACKEND_NAMES)}")
