"""End-to-end scan benchmark: ``cli_hit`` and ``http_fleet``.

Run from the repository root::

    python3 perfbench/run.py --workload cli_hit --seed 1 --seconds 10 --trace 0

``--trace 0`` makes the run's inputs from the seed, sets the program up
five times on fresh copies of them (reporting the median as ``setup_s``)
and measures the last set-up with the program exactly as a user runs it; the last stdout line is a JSON object with the end-to-end
metrics.  ``--trace 1`` measures three passes instead — untraced, traced
through ``perfbench/launch.py`` and, except for ``cli_hit``, with
``REPRO_TELEMETRY=0`` — and reports the per-layer split of the traced pass
plus the tracing and telemetry overheads.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CACHE = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOAD_NAMES = ("cli_hit", "http_fleet")
#: Set-ups per ``--trace 0`` run; ``setup_s`` is their median.
SETUPS = 5


def _environment(seed: int) -> dict:
    """What the numbers depend on, recorded next to every result."""
    import numpy as np
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             timeout=10).stdout.strip() or None
    except OSError:
        sha = None
    digest = hashlib.sha256()
    for folder, _, files in sorted(os.walk(os.path.join(SRC, "repro"))):
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as handle:
                    digest.update(handle.read())
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"git_sha": sha, "src_sha256": digest.hexdigest()[:16],
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "seed": seed}


def _program_env(telemetry: bool = True) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    if not telemetry:
        env["REPRO_TELEMETRY"] = "0"
    return env


def _run_pass(name: str, seed: int, seconds: float, bases, work: str,
              trace_dir: Optional[str] = None, telemetry: bool = True,
              setups: int = 1, corrupt: bool = False, tiny: bool = False,
              short: bool = False):
    """Prepare a workload, set it up ``setups`` times, measure the last.

    Only ``workload.setup()`` is timed; returns (tally, set-up seconds).
    ``short`` passes (the three of a traced run) run one round at least
    instead of the workload's minimum and time ``cli_hit`` scrapes.
    """
    import workloads
    directory = os.path.join(work, f"{name}-{len(os.listdir(work))}")
    os.makedirs(directory)
    ctx = workloads.Context(bases=bases, seed=seed,
                            env=_program_env(telemetry), work=directory,
                            trace_dir=trace_dir, corrupt=corrupt, tiny=tiny,
                            min_rounds=1 if tiny or short else None,
                            scrape=short)
    workload = workloads.WORKLOADS[name](ctx)
    workload.prepare()
    setup_times: List[float] = []
    try:
        for index in range(setups):
            workload.stage()
            started = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - started)
            if index < setups - 1:
                workload.teardown()
        tally = workload.measure(seconds)
    finally:
        rss = workload.teardown()
    tally.rss_mb = max(tally.rss_mb, rss)
    if name == "http_fleet":
        tally.fleet = workload.fleet_log()
    return tally, setup_times


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` (0..100) of ``values``."""
    ordered = sorted(values) or [0.0]
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_percentile(samples: int) -> int:
    """Highest whole percentile with at least ten samples beyond it.

    Falls back to the median when there are fewer than twenty samples.
    """
    return max(50, int(100.0 * (1.0 - 10.0 / samples))) if samples else 50


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(tally, setup_times: List[float]) -> Tuple[dict, dict]:
    """The end-to-end metrics of a measured pass, plus sample details."""
    tail = tail_percentile(len(tally.latencies))
    completed = max(1, tally.completed)
    metrics = {
        "setup_s": (_median(setup_times), "s"),
        "requests_per_s": (_ratio(tally.completed, tally.wall_s), "1/s"),
        "latency_p50_s": (percentile(tally.latencies, 50), "s"),
        "latency_tail_s": (percentile(tally.latencies, tail), "s"),
        "cpu_s_per_request": (tally.cpu_s / completed, "s"),
        "rss_peak_mb": (tally.rss_mb, "MB"),
        "success_frac": (_ratio(tally.completed, tally.attempted), "ratio"),
        "detect_tpr": (_ratio(tally.true_positives, tally.positives), "ratio"),
        "detect_tnr": (_ratio(tally.true_negatives, tally.negatives), "ratio"),
    }
    details = {"latency_samples": len(tally.latencies),
               "latency_tail_percentile": tail,
               "scrape_samples": len(tally.scrapes),
               "scrape_p50_s": round(_median(tally.scrapes), 4),
               "setup_samples": len(setup_times),
               "wall_s": round(tally.wall_s, 3),
               "positives": tally.positives, "negatives": tally.negatives,
               "notes": tally.notes}
    return metrics, details


def per_layer(name: str, merged: dict, traced, plain, telemetry_off) -> dict:
    """Per-layer metrics of the traced pass, per completed request."""
    import workloads
    layers, counters, jobs = merged["layers"], merged["counters"], merged["jobs"]
    requests = max(1, traced.completed)

    def self_s(layer: str) -> float:
        return layers.get(layer, [0.0])[0] / requests

    def total(layer: str) -> float:
        return layers.get(layer, [0.0, 0.0])[1]

    def per_request(counter: str) -> float:
        return counters.get(counter, 0.0) / requests

    hits, misses = counters.get("scheduler.hits", 0), counters.get(
        "scheduler.misses", 0)
    pools = traced.pools
    finalists = sum(p.get("finalists", 0) for p in pools)
    items = sum(p.get("items", 0) for p in pools)
    cache_hits = sum(p.get("cache", {}).get("hits", 0) for p in pools)
    cache_all = cache_hits + sum(p.get("cache", {}).get("misses", 0)
                                 for p in pools)
    fleet = traced.fleet
    fleet_jobs = fleet.get("jobs", 0)
    api_jobs = [events for events in jobs.values()
                if {"submitted", "started", "finished"} <= set(events)]
    dispatch_wait = sum(e["started"] - e["submitted"] for e in api_jobs)
    walls = sum(traced.request_walls)
    if name == "http_fleet":
        covered = (total("api.submit") + dispatch_wait + total("api.execute")
                   + total("api.result"))
    else:
        covered = total("cli.import") + total("cli.process")
    rps = {label: _ratio(t.completed, t.wall_s)
           for label, t in (("plain", plain), ("traced", traced),
                            ("off", telemetry_off)) if t is not None}
    values = {
        "cli.import_s": self_s("cli.import"),
        "cli.process_s": self_s("cli.process"),
        "serialization.load_s": self_s("serialization.load"),
        "serialization.load_mb": per_request("serialization.load_mb"),
        "fingerprint.hash_s": self_s("fingerprint.hash"),
        "fingerprint.hash_mb": per_request("fingerprint.hash_mb"),
        "store.open_s": self_s("store.open"),
        "store.records_replayed": per_request("store.records_replayed"),
        "store.lookup_s": self_s("store.lookup"),
        "store.add_s": self_s("store.add"),
        "store.adds": per_request("store.adds"),
        "scheduler.resolve_s": self_s("scheduler.resolve"),
        "scheduler.plan_s": self_s("scheduler.plan"),
        "scheduler.hit_ratio": _ratio(hits, hits + misses),
        "backends.run_s": self_s("backends.run"),
        "backends.worker_busy_frac": _ratio(
            total("scheduler.execute"),
            total("backends.run") * workloads.EXECUTORS.get(name, 1)),
        "data.clean_sample_s": self_s("data.clean_sample"),
        "uap.sweep_s": self_s("uap.sweep"),
        "inversion.optimize_s": self_s("inversion.optimize"),
        "inversion.iterations": per_request("inversion.iterations"),
        "inversion.iterations_per_s": _ratio(
            counters.get("inversion.iterations", 0.0),
            total("inversion.optimize")),
        "mega.finalist_frac": _ratio(finalists, items),
        "mega.activation_cache_hit_ratio": _ratio(cache_hits, cache_all),
        "detection.detect_s.usb": self_s("detection.detect.usb"),
        "detection.detect_s.nc": self_s("detection.detect.nc"),
        "detection.detect_s.tabor": self_s("detection.detect.tabor"),
        "detection.mad_s": self_s("detection.mad"),
        "nn.conv2d_s": self_s("nn.conv2d"),
        "nn.conv2d_calls": per_request("nn.conv2d_calls"),
        "nn.conv2d_gflop": per_request("nn.conv2d_gflop"),
        "nn.backward_s": self_s("nn.backward"),
        "ssim.ssim_s": self_s("ssim.ssim"),
        "fleet.queue_wait_s": fleet.get("queue_wait_s", 0.0),
        "fleet.exec_s": fleet.get("exec_s", 0.0),
        "fleet.polls_per_job": _ratio(counters.get("fleet.polls", 0.0),
                                      fleet_jobs),
        "fleet.requeues": _ratio(fleet.get("requeues", 0), fleet_jobs),
        "api.submit_s": self_s("api.submit"),
        "api.dispatch_wait_s": _ratio(dispatch_wait, len(api_jobs)),
        "api.result_s": self_s("api.result"),
        "api.polls_per_job": _ratio(counters.get("api.polls", 0.0),
                                    len(api_jobs)),
        "routing.escalation_frac": _ratio(counters.get("routing.escalations",
                                                       0.0),
                                          counters.get("routing.requests", 0.0)),
        "routing.stages_per_request": _ratio(counters.get("routing.stages", 0.0),
                                             counters.get("routing.requests",
                                                          0.0)),
        "obs.registry_build_s": self_s("obs.registry_build"),
        "scrape_p50_s": _median(plain.scrapes),
        "obs.write_spans_s": self_s("obs.write_spans"),
        "obs.spans_written": per_request("obs.spans_written"),
        "obs.telemetry_overhead_frac": (_ratio(rps["off"], rps["plain"]) - 1.0
                                        if "off" in rps else 0.0),
        "unattributed_frac": 1.0 - _ratio(covered, walls),
        "trace_overhead_frac": _ratio(rps["plain"], rps["traced"]) - 1.0,
    }
    return values


def _units() -> Dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def run(name: str, seed: int, seconds: float, trace: bool,
        corrupt: bool = False, tiny: bool = False) -> Tuple[dict, dict]:
    """Run one workload; returns (result JSON object, info object)."""
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import tracer
    import workloads
    import zoo
    env = _environment(seed)
    bases = zoo.load_zoo(CACHE, _program_env())
    os.makedirs(CACHE, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"run-{name}-", dir=CACHE)
    info = {"workload": name, "env": env,
            "zoo": [{"name": b.name, "arch": b.arch, "target": b.target,
                     "asr": b.asr, "accuracy": b.accuracy} for b in bases]}
    try:
        if not trace:
            tally, setups = _run_pass(name, seed, seconds, bases, work,
                                      setups=SETUPS, corrupt=corrupt, tiny=tiny)
            metrics, details = end_to_end(tally, setups)
            info["details"] = details
        else:
            # Three passes share the run's time budget.
            seconds /= 3.0
            plain, _ = _run_pass(name, seed, seconds, bases, work,
                                 corrupt=corrupt, tiny=tiny, short=True)
            trace_dir = os.path.join(work, "trace")
            tally, _ = _run_pass(name, seed, seconds, bases, work,
                                 trace_dir=trace_dir, corrupt=corrupt,
                                 tiny=tiny, short=True)
            off = None
            if name != "cli_hit":
                off, _ = _run_pass(name, seed, seconds, bases, work,
                                   telemetry=False, corrupt=corrupt, tiny=tiny,
                                   short=True)
            merged = tracer.merge(trace_dir)
            values = per_layer(name, merged, tally, plain, off)
            units = _units()
            metrics = {key: (value, units[key]) for key, value in values.items()}
            info["layers"] = {k: [round(v, 6) for v in entry]
                              for k, entry in sorted(merged["layers"].items())}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {"correct": tally.wrong == 0, "attempted": tally.attempted,
              "failed": tally.failed + tally.wrong,
              "metrics": {key: {"value": float(value), "unit": unit}
                          for key, (value, unit) in metrics.items()}}
    return result, info


def _exit_on_sigterm(signum, frame) -> None:
    """Turn SIGTERM into SystemExit so every started process is stopped."""
    raise SystemExit(128 + signum)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program sources at {SRC}; run from the "
              "repository root.", file=sys.stderr)
        return 2
    result, info = run(args.workload, args.seed, args.seconds,
                       bool(args.trace))
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
