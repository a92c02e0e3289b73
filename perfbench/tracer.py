"""Per-layer self-time tracing, installed from outside the program.

The traced pass of the benchmark wraps the public functions at each layer
boundary of ``repro`` (see :data:`LAYERS`) instead of adding spans inside
``src/``.  Every wrapper keeps a per-thread stack, so a layer's *self* time
is its own duration minus the time of the wrapped calls nested inside it.
Totals stay in memory and are written as one JSON file per process into a
trace directory; :func:`merge` folds the files of one pass together.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import os
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (layer key, "module:attribute" or "module:Class.method") pairs to wrap.
#: Module-level functions are rebound in every loaded ``repro`` module that
#: imported them by name, so ``from x import f`` call sites are covered.
LAYERS: List[Tuple[str, str]] = [
    ("serialization.load", "repro.nn.serialization:load_checkpoint"),
    ("fingerprint.hash", "repro.service.fingerprint:fingerprint_state_dict"),
    ("store.open", "repro.service.store:ShardedResultStore.__init__"),
    ("store.open", "repro.service.store:ResultStore.__init__"),
    ("store.lookup", "repro.service.store:ShardedResultStore.lookup"),
    ("store.lookup", "repro.service.store:ResultStore.lookup"),
    ("store.add", "repro.service.store:ShardedResultStore.add"),
    ("store.add", "repro.service.store:ResultStore.add"),
    ("store.records", "repro.service.store:ShardedResultStore.records"),
    ("scheduler.scan", "repro.service.scheduler:ScanScheduler.scan"),
    ("scheduler.resolve", "repro.service.scheduler:resolve_request"),
    ("scheduler.plan", "repro.service.planning:CachePlanner.plan"),
    ("scheduler.execute", "repro.service.scheduler:execute_resolved"),
    ("backends.run", "repro.service.backends:InlineBackend.run"),
    ("backends.run", "repro.service.backends:PoolBackend.run"),
    ("backends.run", "repro.service.fleet:FleetBackend.run"),
    ("data.clean_sample", "repro.data:load_dataset"),
    ("data.clean_sample", "repro.data.dataset:stratified_sample"),
    ("uap.sweep", "repro.core.uap:generate_targeted_uaps"),
    ("uap.sweep", "repro.core.uap:generate_targeted_uap"),
    ("inversion.optimize",
     "repro.core.trigger_optimizer:BatchedTriggerMaskOptimizer.optimize"),
    ("inversion.optimize",
     "repro.core.trigger_optimizer:TriggerMaskOptimizer.optimize"),
    ("mega.fleet", "repro.core.detection:detect_mega_fleet"),
    ("detection.detect",
     "repro.core.detection:TriggerReverseEngineeringDetector.detect"),
    ("detection.mad", "repro.core.detection:mad_anomaly_indices"),
    ("nn.conv2d", "repro.nn.functional:conv2d"),
    ("nn.backward", "repro.nn.tensor:Tensor.backward"),
    ("ssim.ssim", "repro.utils.ssim:ssim_tensor"),
    ("ssim.ssim", "repro.utils.ssim:ssim"),
    ("fleet.poll", "repro.service.fleet:FleetQueue.poll"),
    ("fleet.worker", "repro.service.fleet:FleetWorker._execute"),
    ("api.submit", "repro.service.api:_Handler._post_scan"),
    ("api.job", "repro.service.api:_Handler._get_job"),
    ("api.result", "repro.service.api:_Handler._get_result"),
    ("api.execute", "repro.service.api:ApiServer._execute"),
    ("api.metrics", "repro.service.api:ApiServer.metrics_text"),
    ("routing.route", "repro.service.routing:route_scan"),
    ("obs.registry_build", "repro.obs.metrics:build_service_registry"),
    ("obs.write_spans", "repro.obs.trace:write_spans"),
]


class _State:
    """Totals of one process: per-layer times, counters and job events."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.local = threading.local()
        self.pid = os.getpid()
        self.out_dir: Optional[str] = None
        #: layer -> [self seconds, total seconds, calls]
        self.layers: Dict[str, List[float]] = {}
        self.counters: Dict[str, float] = {}
        #: API job id -> {"submitted": t, "started": t, "finished": t}
        self.jobs: Dict[str, Dict[str, float]] = {}


STATE = _State()


def count(name: str, amount: float = 1.0) -> None:
    """Add ``amount`` to the process counter ``name``."""
    with STATE.lock:
        STATE.counters[name] = STATE.counters.get(name, 0.0) + amount


def _stack() -> List[List[float]]:
    stack = getattr(STATE.local, "stack", None)
    if stack is None:
        stack = STATE.local.stack = []
    return stack


def enter() -> List[float]:
    """Open a frame: ``[start, child seconds]``, pushed on this thread."""
    frame = [time.perf_counter(), 0.0]
    _stack().append(frame)
    return frame


def leave(frame: List[float], layer: str) -> float:
    """Close ``frame`` under ``layer``; returns its duration."""
    duration = time.perf_counter() - frame[0]
    stack = _stack()
    stack.pop()
    if stack:
        stack[-1][1] += duration
    with STATE.lock:
        totals = STATE.layers.setdefault(layer, [0.0, 0.0, 0])
        totals[0] += duration - frame[1]
        totals[1] += duration
        totals[2] += 1
    return duration


def timed(layer: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
    """Call ``fn`` inside a frame of ``layer``."""
    frame = enter()
    try:
        return fn(*args, **kwargs)
    finally:
        leave(frame, layer)


# ---------------------------------------------------------------------- #
# Counters derived from a wrapped call's arguments and result
# ---------------------------------------------------------------------- #
def _conv_gflop(args: tuple, result: Any) -> None:
    weight = args[1].data if len(args) > 1 else None
    out = getattr(result, "data", None)
    if weight is None or out is None:
        return
    # out: (N, C_out, H_out, W_out); weight: (C_out, C_in/groups, kh, kw)
    macs = out.size * weight.shape[1] * weight.shape[2] * weight.shape[3]
    count("nn.conv2d_gflop", 2.0 * macs / 1e9)


def _after(layer: str, args: tuple, kwargs: dict, result: Any,
           duration: float) -> Optional[str]:
    """Record counters for one finished call; may rename the layer."""
    if layer == "serialization.load":
        path = args[0] if args else kwargs.get("path")
        try:
            count("serialization.load_mb", os.path.getsize(path) / 1e6)
        except (OSError, TypeError):
            pass
    elif layer == "fingerprint.hash":
        state = args[0] if args else {}
        count("fingerprint.hash_mb",
              sum(getattr(v, "nbytes", 0) for v in state.values()) / 1e6)
    elif layer == "store.add":
        count("store.adds")
    elif layer == "scheduler.plan":
        results, pending = result
        hits = sum(1 for r in results if r is not None)
        count("scheduler.hits", hits)
        count("scheduler.misses", len(pending))
    elif layer == "inversion.optimize":
        results = result if isinstance(result, list) else [result]
        count("inversion.iterations",
              sum(int(getattr(r, "iterations", 0)) for r in results))
    elif layer == "detection.detect":
        return f"detection.detect.{str(getattr(args[0], 'name', '')).lower()}"
    elif layer == "nn.conv2d":
        count("nn.conv2d_calls")
        _conv_gflop(args, result)
    elif layer == "fleet.poll":
        count("fleet.polls")
    elif layer == "routing.route":
        breakdown = getattr(result, "cost_breakdown", {}) or {}
        count("routing.requests")
        count("routing.stages", len(breakdown.get("stages", ())))
        count("routing.escalations", 1 if breakdown.get("escalated") else 0)
    elif layer == "obs.write_spans":
        count("obs.spans_written", len(args[1]) if len(args) > 1 else 0)
    elif layer == "api.job":
        count("api.polls")
    return None


def _wrap(layer: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    if layer == "api.execute":
        def api_execute(server, job, *args, **kwargs):
            STATE.jobs.setdefault(job.job_id, {})["started"] = time.time()
            try:
                return timed(layer, fn, server, job, *args, **kwargs)
            finally:
                STATE.jobs[job.job_id]["finished"] = time.time()
        return api_execute

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = enter()
        name = layer
        try:
            result = fn(*args, **kwargs)
            duration = time.perf_counter() - frame[0]
            name = _after(layer, args, kwargs, result, duration) or layer
            return result
        finally:
            leave(frame, name)

    return wrapper


def _wrap_submit(fn: Callable[..., Any]) -> Callable[..., Any]:
    """``ApiServer.submit``: remember when each job entered the queue."""
    def submit(server, *args, **kwargs):
        job = fn(server, *args, **kwargs)
        STATE.jobs.setdefault(job.job_id, {})["submitted"] = time.time()
        return job
    return submit


def _wrap_replay(fn: Callable[..., Any]) -> Callable[..., Any]:
    """``store._iter_jsonl_records``: count every record replayed."""
    def replay(*args, **kwargs):
        for record in fn(*args, **kwargs):
            count("store.records_replayed")
            yield record
    return replay


def _rebind(module_name: str, attr: str, original: Any, replacement: Any
            ) -> None:
    """Point ``attr`` at ``replacement`` wherever ``original`` is bound.

    Fleet job kinds are matched by function identity, so a kind that runs
    ``original`` is re-registered with the wrapper.
    """
    setattr(importlib.import_module(module_name), attr, replacement)
    fleet = importlib.import_module("repro.service.fleet")
    for kind in list(fleet._KINDS.values()):
        if kind.fn is original:
            fleet.register_kind(dataclasses.replace(kind, fn=replacement))
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)


def install(out_dir: str) -> None:
    """Wrap every layer in :data:`LAYERS` and write totals into ``out_dir``."""
    STATE.out_dir = out_dir
    os.makedirs(out_dir, exist_ok=True)
    for module_name in ("repro.service.cli", "repro.service.api",
                        "repro.service.fleet", "repro.core.usb",
                        "repro.defenses"):
        importlib.import_module(module_name)
    for layer, target in LAYERS:
        module_name, _, path = target.partition(":")
        module = importlib.import_module(module_name)
        if "." in path:
            class_name, method = path.split(".")
            owner = getattr(module, class_name)
            setattr(owner, method, _wrap(layer, owner.__dict__[method]))
        else:
            original = getattr(module, path)
            _rebind(module_name, path, original, _wrap(layer, original))
    api = importlib.import_module("repro.service.api")
    api.ApiServer.submit = _wrap_submit(api.ApiServer.submit)
    store = importlib.import_module("repro.service.store")
    store._iter_jsonl_records = _wrap_replay(store._iter_jsonl_records)


def dump() -> None:
    """Write this process's totals to ``<out_dir>/trace-<pid>.json``."""
    if STATE.out_dir is None:
        return
    with STATE.lock:
        payload = {"pid": STATE.pid, "layers": dict(STATE.layers),
                   "counters": dict(STATE.counters),
                   "jobs": {k: dict(v) for k, v in STATE.jobs.items()}}
    path = os.path.join(STATE.out_dir, f"trace-{STATE.pid}.json")
    with open(path + ".tmp", "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    os.replace(path + ".tmp", path)


def merge(out_dir: str) -> Dict[str, Any]:
    """Sum the per-process totals written into ``out_dir``."""
    layers: Dict[str, List[float]] = {}
    counters: Dict[str, float] = {}
    jobs: Dict[str, Dict[str, float]] = {}
    for name in sorted(os.listdir(out_dir)) if os.path.isdir(out_dir) else []:
        if not (name.startswith("trace-") and name.endswith(".json")):
            continue
        with open(os.path.join(out_dir, name), encoding="utf-8") as handle:
            payload = json.load(handle)
        for layer, (self_s, total_s, calls) in payload["layers"].items():
            entry = layers.setdefault(layer, [0.0, 0.0, 0])
            entry[0] += self_s
            entry[1] += total_s
            entry[2] += calls
        for key, value in payload["counters"].items():
            counters[key] = counters.get(key, 0.0) + value
        for job_id, events in payload["jobs"].items():
            jobs.setdefault(job_id, {}).update(events)
    return {"layers": layers, "counters": counters, "jobs": jobs}
