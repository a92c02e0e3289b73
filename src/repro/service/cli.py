"""Command-line front end for the scanning service: ``python -m repro``.

Subcommands::

    python -m repro scan checkpoint.npz --detector usb
    python -m repro scan checkpoint.npz --scenario source_conditional \
        --source-classes 1,2
    python -m repro grid ckpt_a.npz ckpt_b.npz --detectors usb,nc --workers 2
    python -m repro repair checkpoint.npz --strategy both \
        --max-accuracy-drop 3
    python -m repro report --store scan_results/
    python -m repro experiment --table table5 --scale bench \
        --scenarios all_to_one,source_conditional,all_to_all
    python -m repro watch drop_dir/ --store scans/ --detectors usb,nc \
        --auto-repair
    python -m repro store compact --store scans/
    python -m repro store merge --store scans/ --source other_store/
    python -m repro trace --store scans/            # list recorded traces
    python -m repro trace <trace-id> --store scans/ # render one span tree
    python -m repro metrics --store scans/          # Prometheus exposition
    python -m repro serve scans/ --port 8080        # HTTP scan/repair API
    python -m repro scan checkpoint.npz --strategy fastest  # routed triage
    python -m repro worker scans/                   # one fleet worker
    python -m repro grid ... --backend fleet        # dispatch to the fleet

``scan`` runs one detector on one saved model; ``grid`` fans a
checkpoint x detector matrix across the worker pool; ``repair`` runs the
detect -> repair -> verify pipeline (:mod:`repro.mitigation`) on one or
more checkpoints, writing repaired weights next to the originals;
``report`` renders the result store (plus the daemon's stats endpoint when
one exists); ``experiment`` trains and scans a paper table expanded along
the scenario axis (``--repair-strategies`` turns it into a repair sweep
with true ASR before/after); ``watch`` runs the drop-directory daemon
(:mod:`repro.service.daemon`; ``--auto-repair`` repairs every flagged
checkpoint automatically); ``store compact`` / ``store merge`` maintain a
store in place; ``trace`` renders the span trees recorded in
``spans.jsonl`` beside the store; ``metrics`` renders the same Prometheus
exposition the daemon writes to ``metrics.prom`` each cycle; ``serve``
runs the long-lived HTTP front end (:mod:`repro.service.api`) over the
same store.

Every scan-running command accepts ``--backend inline|pool|fleet``: where
a planned batch executes (:mod:`repro.service.backends`).  ``fleet``
submits jobs onto a store-adjacent shared queue that any number of
``python -m repro worker <store>`` processes drain under lease-based
ownership (:mod:`repro.service.fleet`) — verdicts are identical across
backends because resolve/digest/cache logic is backend-independent.

``scan --strategy fastest|cheapest|thorough`` replaces the single
``--detector`` run with the strategy-routed escalation plan
(:mod:`repro.service.routing`): USB probes first and NC/TABOR run only on
suspicion, with a per-request cost breakdown printed (and stamped on the
record telemetry).

Telemetry (spans + per-phase profiles) is on by default for service
commands; disable it per invocation with ``--no-telemetry`` or globally
with ``REPRO_TELEMETRY=0``.  The global ``--log-level`` flag (or
``REPRO_LOG_LEVEL``) controls the shared ``repro`` logger.

All commands share one result store (``--store``).  The default is the
sharded multi-writer directory ``scan_results/``, which concurrent
schedulers and daemons can write simultaneously and which a cache hit reads
one shard of; a path ending in ``.jsonl`` opens the legacy single-file
layout instead.  A repeated scan of an identical (weights, detector,
config, scenario) tuple is served from cache and labelled as such — the
scenario is part of the cache key, so verdicts never collide across
scenarios.

Each command imports the modules it runs when it runs: ``scan`` never
loads the HTTP server (``serve``), the fleet (``worker`` and ``--backend
fleet``), the daemon (``watch``), the repair pipeline (``repair``), the
metrics registry (``report`` and ``metrics``), the span renderer
(``trace``) or the router (``--strategy``), and a ``scan`` or ``grid``
whose every request is a cache hit never loads NumPy or the stdlib
``uuid``, ``ctypes`` or ``datetime``, nor ``logging`` unless
``--strategy`` logs its triage line.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence

from ..attacks.scenarios import SCENARIO_ALL_TO_ONE, SCENARIOS
from ..core.configs import INVERSION_MODES
from ..data import DATASET_SPECS
from ..obs.logging import set_log_level
from ..obs.trace import read_spans
from .backends import BACKEND_NAMES
from .locks import atomic_write
from .records import (KNOWN_DETECTORS, STRATEGIES, RepairRecord, ScanRecord,
                      ScanRequest)
from .scheduler import ScanScheduler
from .store import (SPANS_NAME, STATS_NAME, open_store, sidecar_path,
                    stream_records)

if TYPE_CHECKING:
    from .repair import RepairRequest

#: Repair strategies the CLI offers (mirrors repro.mitigation.STRATEGIES
#: without importing the mitigation package at CLI-import time).
REPAIR_STRATEGIES = ("unlearn", "prune", "both")

__all__ = ["build_parser", "main"]

DEFAULT_STORE = "scan_results"


def _model_name(name: str) -> str:
    """``--model``'s type: a registered architecture name.

    argparse calls it only when the flag is given, so a command without
    ``--model`` never imports the architectures.
    """
    from ..models import MODEL_BUILDERS

    if name not in MODEL_BUILDERS:
        raise argparse.ArgumentTypeError(
            f"invalid choice: {name!r} (choose from "
            f"{', '.join(sorted(MODEL_BUILDERS))})")
    return name


def _add_scan_options(parser: argparse.ArgumentParser) -> None:
    """Attach the scan-budget/scenario flags shared by scan-like commands."""
    parser.add_argument("--model", type=_model_name,
                        help="Architecture to rebuild, a name in "
                             "repro.models.MODEL_BUILDERS (default: "
                             "checkpoint metadata).")
    parser.add_argument("--dataset", choices=sorted(DATASET_SPECS),
                        help="Dataset family for the clean set (default: metadata).")
    parser.add_argument("--image-size", type=int, default=None,
                        help="Input resolution (default: metadata, then dataset spec).")
    parser.add_argument("--classes", type=str, default=None,
                        help="Comma-separated candidate target classes (default: all).")
    parser.add_argument("--scenario", default=SCENARIO_ALL_TO_ONE,
                        choices=list(SCENARIOS),
                        help="Scan scenario; non-all-to-one scans sweep the "
                             "(source, target) pair grid.")
    parser.add_argument("--source-classes", type=str, default=None,
                        help="Comma-separated suspected source classes "
                             "(source_conditional scans; default: all candidates).")
    parser.add_argument("--clean-budget", type=int, default=60,
                        help="Clean images handed to the detector (paper: 300).")
    parser.add_argument("--samples-per-class", type=int, default=30,
                        help="Per-class size of the synthesized clean pool.")
    parser.add_argument("--iterations", type=int, default=40,
                        help="Trigger-optimization iterations (Alg. 2).")
    parser.add_argument("--uap-passes", type=int, default=1,
                        help="UAP sweeps over the clean set (Alg. 1, USB only).")
    parser.add_argument("--anomaly-threshold", type=float, default=2.0,
                        help="MAD anomaly index above which a class is flagged.")
    parser.add_argument("--inversion-mode", choices=INVERSION_MODES,
                        default="batched",
                        help="Trigger-inversion engine: 'sequential' "
                             "(per-class loop), 'batched' (all classes of a "
                             "scan in one work-item pool run, cascade off; "
                             "default), or 'mega' (cross-model work-item "
                             "pool with the budget cascade).")
    parser.add_argument("--seed", type=int, default=0)


def _add_repair_options(parser: argparse.ArgumentParser) -> None:
    """Attach the repair-strategy/budget flags of the ``repair`` command."""
    parser.add_argument("--strategy", default="both",
                        choices=list(REPAIR_STRATEGIES),
                        help="Repair strategy: trigger-informed unlearning, "
                             "activation-differential pruning, or both.")
    parser.add_argument("--unlearn-epochs", type=int, default=3,
                        help="Unlearning fine-tune epochs over the clean set.")
    parser.add_argument("--learning-rate", type=float, default=1e-3,
                        help="Unlearning fine-tune learning rate.")
    parser.add_argument("--stamp-fraction", type=float, default=0.5,
                        help="Fraction of each unlearning batch stamped with "
                             "a reversed trigger.")
    parser.add_argument("--prune-fraction", type=float, default=0.1,
                        help="Max fraction of penultimate units pruned.")
    parser.add_argument("--max-accuracy-drop", type=float, default=3.0,
                        help="Clean-accuracy guardrail in percentage points; "
                             "a worse repair is rolled back.")
    parser.add_argument("--no-rescan", action="store_true",
                        help="Skip the post-repair detector re-scan.")
    parser.add_argument("--output-dir", default=None,
                        help="Directory for repaired checkpoints, created "
                             "if missing (default: next to the originals); "
                             "names stay digest-suffixed.")


def _add_common(parser: argparse.ArgumentParser) -> None:
    """Attach the store/worker/output flags shared by most commands."""
    parser.add_argument("--store", default=DEFAULT_STORE,
                        help="Result store: a directory for the sharded "
                             "multi-writer layout (default: "
                             f"{DEFAULT_STORE}/), or a .jsonl file for the "
                             "legacy single-writer one.")
    parser.add_argument("--no-store", action="store_true",
                        help="Disable the cache: always recompute, never persist.")
    parser.add_argument("--workers", type=int, default=0,
                        help="Worker processes; 0/1 runs scans inline (serial).")
    parser.add_argument("--backend", default=None, choices=list(BACKEND_NAMES),
                        help="Execution backend: inline (serial), pool "
                             "(a forked child per job, --workers at once), "
                             "or fleet (store-adjacent shared queue drained "
                             "by 'python -m repro worker' processes). Default: "
                             "pool when --workers > 1, else inline.")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="Emit machine-readable JSON instead of tables.")
    parser.add_argument("--no-telemetry", action="store_true",
                        help="Disable trace spans and per-phase profiling "
                             "for this invocation (REPRO_TELEMETRY=0 "
                             "disables them globally).")


def build_parser() -> argparse.ArgumentParser:
    """Build the ``python -m repro`` argument parser (all subcommands).

    Returns:
        The configured :class:`argparse.ArgumentParser`.
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="USB/NC/TABOR backdoor-scanning service.")
    parser.add_argument("--log-level", default=None,
                        help="Logging level for the shared 'repro' logger "
                             "(DEBUG/INFO/WARNING/ERROR; default: "
                             "REPRO_LOG_LEVEL, then INFO).")
    commands = parser.add_subparsers(dest="command", required=True)

    scan = commands.add_parser(
        "scan", help="Scan one saved checkpoint with one detector.")
    scan.add_argument("checkpoint", help="Path to a .npz checkpoint.")
    scan.add_argument("--detector", default="usb",
                      choices=list(KNOWN_DETECTORS))
    scan.add_argument("--strategy", default=None, choices=list(STRATEGIES),
                      help="Run the strategy-routed triage plan instead of "
                           "a single detector: USB probes first, NC/TABOR "
                           "escalate only on suspicion (fastest: one "
                           "parallel escalation batch; cheapest: serial, "
                           "stop at first confirmation; thorough: all).")
    _add_scan_options(scan)
    _add_common(scan)

    grid = commands.add_parser(
        "grid", help="Scan a checkpoint x detector grid across workers.")
    grid.add_argument("checkpoints", nargs="+",
                      help="One or more .npz checkpoints.")
    grid.add_argument("--detectors", default="usb",
                      help="Comma-separated detector list (e.g. usb,nc,tabor).")
    _add_scan_options(grid)
    _add_common(grid)

    repair = commands.add_parser(
        "repair", help="Detect, repair, and verify one or more checkpoints.")
    repair.add_argument("checkpoints", nargs="+",
                        help="One or more .npz checkpoints.")
    repair.add_argument("--detector", default="usb",
                        choices=list(KNOWN_DETECTORS))
    _add_scan_options(repair)
    _add_repair_options(repair)
    _add_common(repair)

    report = commands.add_parser(
        "report", help="Render the result store (and daemon stats) as tables.")
    report.add_argument("--store", default=DEFAULT_STORE)
    report.add_argument("--detector", default=None,
                        help="Only show records from this detector.")
    report.add_argument("--stats", default=None,
                        help="Daemon stats endpoint file (default: derived "
                             "from --store; shown only when it exists).")
    report.add_argument("--json", action="store_true", dest="as_json")

    watch = commands.add_parser(
        "watch", help="Daemon: poll a drop directory, scan new checkpoints.")
    watch.add_argument("directory", help="Drop directory to watch for .npz files.")
    watch.add_argument("--detectors", default="usb",
                       help="Comma-separated detector list run per checkpoint.")
    watch.add_argument("--poll-interval", type=float, default=2.0,
                       help="Seconds between directory polls.")
    watch.add_argument("--job-timeout", type=float, default=None,
                       help="Kill a scan after this many seconds (default: "
                            "unlimited).")
    watch.add_argument("--retries", type=int, default=1,
                       help="Retry budget per failed/timed-out job.")
    watch.add_argument("--settle-polls", type=int, default=1,
                       help="Polls a file must stay unchanged before scanning "
                            "(guards against half-copied checkpoints).")
    watch.add_argument("--max-iterations", type=int, default=0,
                       help="Stop after N polls (0 = run until interrupted).")
    watch.add_argument("--stats", default=None,
                       help="Stats endpoint file (default: derived from "
                            "--store).")
    watch.add_argument("--auto-repair", action="store_true",
                       help="Automatically repair every checkpoint flagged "
                            "as backdoored (after the poll's scans).")
    watch.add_argument("--repair-strategy", default="both",
                       choices=list(REPAIR_STRATEGIES),
                       help="Strategy used by --auto-repair.")
    watch.add_argument("--no-telemetry", action="store_true",
                       help="Disable trace spans, per-phase profiling, and "
                            "the metrics.prom export.")
    watch.add_argument("--backend", default=None,
                       choices=list(BACKEND_NAMES),
                       help="Job execution backend: pool (a killable "
                            "forked child per attempt, the default), fleet "
                            "(hand jobs to 'python -m repro worker' "
                            "processes), or inline.")
    _add_scan_options(watch)
    watch.add_argument("--store", default=DEFAULT_STORE,
                       help="Result store; use a directory for the sharded "
                            "multi-writer layout.")

    trace = commands.add_parser(
        "trace", help="Render recorded trace spans (spans.jsonl beside the "
                      "store).")
    trace.add_argument("trace_id", nargs="?", default=None,
                       help="Trace id to render as a span tree (omit to list "
                            "recorded traces).")
    trace.add_argument("--store", default=DEFAULT_STORE,
                       help="Result store whose spans.jsonl sidecar to read.")

    serve = commands.add_parser(
        "serve", help="Run the HTTP scan/repair API over a result store.")
    serve.add_argument("store", help="Result store the API reads and writes "
                                     "(directory for the sharded layout).")
    serve.add_argument("--host", default="127.0.0.1",
                       help="Bind address (default: loopback).")
    serve.add_argument("--port", type=int, default=8321,
                       help="Bind port; 0 picks an ephemeral port.")
    serve.add_argument("--workers", type=int, default=0,
                       help="Scheduler worker processes; 0/1 runs scans "
                            "inline on the dispatcher thread.")
    serve.add_argument("--retries", type=int, default=1,
                       help="Scheduler retry budget per failed job attempt "
                            "before the job is marked failed.")
    serve.add_argument("--no-telemetry", action="store_true",
                       help="Disable trace spans and per-phase profiling.")
    serve.add_argument("--backend", default=None,
                       choices=list(BACKEND_NAMES),
                       help="Scheduler execution backend; 'fleet' dispatches "
                            "every job to the store's worker fleet, tagged "
                            "with the submitting tenant.")

    worker = commands.add_parser(
        "worker", help="Run one fleet worker over a store's shared queue.")
    worker.add_argument("store",
                        help="Result store whose fleet/ queue to serve "
                             "(jobs arrive from any --backend fleet "
                             "submitter sharing this store).")
    worker.add_argument("--worker-id", default=None,
                        help="Stable worker identity on lease/presence "
                             "events (default: a fresh worker-<hex> id).")
    worker.add_argument("--lease-seconds", type=float, default=30.0,
                        help="Lease duration stamped on acquire and each "
                             "heartbeat renewal; a worker silent for this "
                             "long forfeits its job to the fleet.")
    worker.add_argument("--poll-interval", type=float, default=0.2,
                        help="Idle sleep between acquire attempts.")
    worker.add_argument("--max-jobs", type=int, default=0,
                        help="Exit after executing N jobs (0 = no limit).")
    worker.add_argument("--idle-timeout", type=float, default=0.0,
                        help="Exit after this many seconds without work "
                             "(0 = run until interrupted).")

    metrics = commands.add_parser(
        "metrics", help="Render service metrics in Prometheus text format.")
    metrics.add_argument("--store", default=DEFAULT_STORE,
                         help="Result store the metric families are built "
                              "from.")
    metrics.add_argument("--stats", default=None,
                         help="Daemon stats endpoint file (default: derived "
                              "from --store when it exists).")
    metrics.add_argument("--output", default=None,
                         help="Write the exposition atomically to this file "
                              "instead of stdout.")

    store = commands.add_parser(
        "store", help="Maintain a result store in place.")
    store_commands = store.add_subparsers(dest="store_command", required=True)
    compact = store_commands.add_parser(
        "compact", help="Dedupe superseded records and rewrite the shards.")
    compact.add_argument("--store", default=DEFAULT_STORE)
    merge = store_commands.add_parser(
        "merge", help="Fold a foreign store in (existing cache keys win).")
    merge.add_argument("--store", default=DEFAULT_STORE,
                       help="Destination store.")
    merge.add_argument("--source", required=True,
                       help="Foreign store (file or directory) to merge in.")

    experiment = commands.add_parser(
        "experiment",
        help="Train + scan one paper table expanded along the scenario axis.")
    experiment.add_argument("--table", default="table5",
                            help="Table config name (table1..table6).")
    experiment.add_argument("--scale", default="bench",
                            help="Scale preset (bench/tiny/small/paper).")
    experiment.add_argument("--scenarios", default=SCENARIO_ALL_TO_ONE,
                            help="Comma-separated scenario list "
                                 f"({','.join(SCENARIOS)}).")
    experiment.add_argument("--cases", type=str, default=None,
                            help="Comma-separated base-case filter "
                                 "(e.g. badnet_3x3).")
    experiment.add_argument("--detectors", type=str, default=None,
                            help="Comma-separated detector subset "
                                 "(default: the table's own list).")
    experiment.add_argument("--source-classes", type=str, default=None,
                            help="Source classes for source_conditional cases "
                                 "(default: the two classes after the target).")
    experiment.add_argument("--inversion-mode", choices=INVERSION_MODES,
                            default="batched",
                            help="Trigger-inversion engine for every scan in "
                                 "the experiment (see 'scan --help').")
    experiment.add_argument("--seed", type=int, default=0)
    experiment.add_argument("--workers", type=int, default=0,
                            help="Run the training jobs and scans on N "
                                 "pool workers; 0/1 runs them inline.")
    experiment.add_argument("--repair-strategies", type=str, default=None,
                            help="Comma-separated repair strategies "
                                 f"({','.join(REPAIR_STRATEGIES)}); when "
                                 "set, run the detect->repair->verify sweep "
                                 "and print true ASR before/after per "
                                 "case x detector x strategy.")
    experiment.add_argument("--json", action="store_true", dest="as_json")
    return parser


def _parse_classes(text: Optional[str]) -> Optional[tuple]:
    """Parse a comma-separated class list CLI value (``None``/blank -> None)."""
    if text is None or not text.strip():
        return None
    return tuple(int(part) for part in text.split(",") if part.strip())


def _scan_options(args: argparse.Namespace) -> Dict[str, Any]:
    """The :class:`ScanRequest` fields the scan-option flags set."""
    return dict(
        model=args.model, dataset=args.dataset, image_size=args.image_size,
        classes=_parse_classes(args.classes), clean_budget=args.clean_budget,
        samples_per_class=args.samples_per_class, iterations=args.iterations,
        uap_passes=args.uap_passes, anomaly_threshold=args.anomaly_threshold,
        seed=args.seed, scenario=args.scenario,
        source_classes=_parse_classes(args.source_classes),
        inversion_mode=args.inversion_mode)


def _request_from_args(args: argparse.Namespace, checkpoint: str,
                       detector: str) -> ScanRequest:
    """Build one :class:`ScanRequest` from parsed scan-option flags."""
    return ScanRequest(checkpoint=checkpoint, detector=detector,
                       **_scan_options(args))


def _make_scheduler(args: argparse.Namespace) -> ScanScheduler:
    """Build the scheduler (and open the store) a command asked for."""
    store = None if args.no_store else open_store(args.store)
    telemetry = False if getattr(args, "no_telemetry", False) else None
    span_sink = (sidecar_path(args.store, SPANS_NAME)
                 if store is not None else None)
    return ScanScheduler(store=store, workers=args.workers,
                         telemetry=telemetry, span_sink=span_sink,
                         backend=getattr(args, "backend", None))


def _print_records(records: Sequence[ScanRecord], as_json: bool,
                   out=None) -> None:
    """Render records as a text table (or JSON with ``as_json``)."""
    out = out or sys.stdout
    if as_json:
        out.write(json.dumps([r.to_dict() | {"cache_hit": r.cache_hit}
                              for r in records], indent=2) + "\n")
        return
    from ..eval.reporting import format_scan_records
    out.write(format_scan_records(records) + "\n")


# ---------------------------------------------------------------------- #
# Subcommands
# ---------------------------------------------------------------------- #
def _print_triage(result, as_json: bool) -> None:
    """Render one routed-triage result (verdict, stages, cost ledger)."""
    if as_json:
        print(json.dumps(result.to_dict(), indent=2))
        return
    breakdown = result.cost_breakdown
    verdict = "BACKDOORED" if result.is_backdoored else "clean"
    print(f"triage[{result.strategy}] -> {verdict} "
          f"(total {breakdown['total_seconds']:.2f}s fresh compute)")
    for stage in breakdown["stages"]:
        cached = " (cache hit)" if stage["cache_hit"] else ""
        print(f"  ran     {stage['detector']:6s} {stage['verdict']:10s} "
              f"max-anomaly={stage['max_anomaly']:6.2f} "
              f"{stage['seconds']:.2f}s{cached}")
    for stage in breakdown["skipped"]:
        print(f"  skipped {stage['detector']:6s} -> {stage['reason']}")
    if breakdown.get("escalation_reason"):
        print(f"  escalation: {breakdown['escalation_reason']}")


def _cmd_scan(args: argparse.Namespace) -> int:
    """``scan``: one checkpoint, one detector, verdict to stdout.

    With ``--strategy`` the single-detector run becomes the routed triage
    plan (see :mod:`repro.service.routing`).
    """
    scheduler = _make_scheduler(args)
    if args.strategy:
        from .routing import RoutingPolicy, route_scan
        request = _request_from_args(args, args.checkpoint, "usb")
        result = route_scan(scheduler, request,
                            RoutingPolicy(strategy=args.strategy))
        _print_triage(result, as_json=args.as_json)
        return 0
    record = scheduler.scan_one(_request_from_args(args, args.checkpoint,
                                                   args.detector))
    if args.as_json:
        _print_records([record], as_json=True)
        return 0
    verdict = "BACKDOORED" if record.is_backdoored else "clean"
    source = "cache hit" if record.cache_hit else f"computed in {record.seconds:.1f}s"
    print(f"{args.checkpoint} [{record.detector}] -> {verdict} ({source})")
    print(f"  model={record.model} dataset={record.dataset} "
          f"fingerprint={record.fingerprint[:16]}...")
    # The stored compact detection holds every value printed below, so a
    # cached verdict prints without rebuilding its triggers.
    detection = record.detection or {}
    indices = detection.get("pair_anomaly_indices") or {}
    if indices:
        print(f"  scenario={args.scenario}: "
              f"{len(indices)} (source->target) cell(s)")
        flagged = set(detection.get("flagged_pairs") or ())
        l1 = {(entry.get("source"), entry["target"]): float(entry["l1"])
              for entry in detection.get("pairs") or ()}
        for source, target in sorted(l1, key=lambda p: (
                p[1], -1 if p[0] is None else p[0])):
            cell = f"{'*' if source is None else source}->{target}"
            flag = "  <-- flagged" if cell in flagged else ""
            print(f"  {cell}: L1={l1[(source, target)]:10.2f}  "
                  f"anomaly={float(indices.get(cell, 0.0)):6.2f}{flag}")
    else:
        anomaly = {int(cls): float(value) for cls, value
                   in (detection.get("anomaly_indices") or {}).items()}
        for cls, norm in sorted(
                (int(cls), float(value)) for cls, value
                in (detection.get("per_class_l1") or {}).items()):
            flag = "  <-- flagged" if cls in record.flagged_classes else ""
            print(f"  class {cls}: L1={norm:10.2f}  "
                  f"anomaly={anomaly.get(cls, 0.0):6.2f}{flag}")
    if not args.no_store:
        print(f"  store: {args.store} (hits={scheduler.cache_hits} "
              f"misses={scheduler.cache_misses})")
    trace_id = (record.telemetry or {}).get("trace_id")
    if trace_id:
        print(f"  trace: {trace_id} "
              f"(python -m repro trace {trace_id} --store {args.store})")
    return 0


def _cmd_grid(args: argparse.Namespace) -> int:
    """``grid``: fan a checkpoint x detector matrix across the worker pool."""
    detectors = [d.strip() for d in args.detectors.split(",") if d.strip()]
    if not detectors:
        print("grid: no detectors given.", file=sys.stderr)
        return 2
    requests = [_request_from_args(args, checkpoint, detector)
                for checkpoint in args.checkpoints
                for detector in detectors]
    scheduler = _make_scheduler(args)
    records = scheduler.scan(requests)
    _print_records(records, as_json=args.as_json)
    if not args.as_json:
        print(f"{len(records)} scan(s); cache hits={scheduler.cache_hits} "
              f"misses={scheduler.cache_misses}; workers={max(args.workers, 1)}")
    return 0


def _repair_request_from_args(args: argparse.Namespace,
                              checkpoint: str) -> RepairRequest:
    """Build one :class:`RepairRequest` from parsed repair-option flags."""
    from .repair import RepairRequest
    if args.output_dir:
        os.makedirs(args.output_dir, exist_ok=True)
    return RepairRequest(
        scan=_request_from_args(args, checkpoint, args.detector),
        strategy=args.strategy,
        unlearn_epochs=args.unlearn_epochs,
        learning_rate=args.learning_rate,
        stamp_fraction=args.stamp_fraction,
        prune_fraction=args.prune_fraction,
        max_accuracy_drop=args.max_accuracy_drop / 100.0,
        rescan=not args.no_rescan,
        output=args.output_dir)


def _cmd_repair(args: argparse.Namespace) -> int:
    """``repair``: detect -> repair -> verify one or more checkpoints."""
    from .repair import run_repairs
    requests = [_repair_request_from_args(args, checkpoint)
                for checkpoint in args.checkpoints]
    scheduler = _make_scheduler(args)
    records = run_repairs(scheduler, requests)
    if args.as_json:
        print(json.dumps([r.to_dict() | {"cache_hit": r.cache_hit}
                          for r in records], indent=2))
        return 0
    from ..eval.reporting import format_repair_records
    print(format_repair_records(records))
    for record in records:
        report = record.report
        detail = [f"acc {100 * record.accuracy_before:.1f} -> "
                  f"{100 * record.accuracy_after:.1f}"]
        flips = report.get("trigger_success_after") or {}
        if flips:
            before = report.get("trigger_success_before") or {}
            detail.append("flip " + ", ".join(
                f"{cell}: {before.get(cell, 0.0):.2f}->{rate:.2f}"
                for cell, rate in sorted(flips.items())))
        if record.repaired_checkpoint:
            detail.append(f"repaired -> {record.repaired_checkpoint}")
        elif report.get("rolled_back"):
            detail.append("guardrail tripped — weights rolled back")
        elif not record.repaired:
            detail.append("nothing flagged — no repair applied")
        print(f"  {record.checkpoint}: {'; '.join(detail)}")
    if not args.no_store:
        print(f"store: {args.store} (hits={scheduler.cache_hits} "
              f"misses={scheduler.cache_misses})")
    return 0


def _load_stats(args: argparse.Namespace) -> Optional[dict]:
    """Read the daemon stats endpoint for ``report``, if one exists."""
    stats_path = args.stats or sidecar_path(args.store, STATS_NAME)
    if not os.path.exists(stats_path):
        return None
    with open(stats_path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    payload["_path"] = stats_path
    return payload


def _print_stats(stats: dict) -> None:
    """Render the daemon's metrics fields under the record table."""
    hits, misses = stats.get("cache_hits", 0), stats.get("cache_misses", 0)
    print(f"daemon stats ({stats.get('_path')}):")
    print(f"  scans served: {stats.get('scans_served', 0)}  "
          f"cache-hit ratio: {stats.get('cache_hit_ratio', 0.0):.2f} "
          f"({hits} hit(s) / {misses} miss(es))")
    print(f"  scan latency: p50={stats.get('latency_p50_s', 0.0):.2f}s "
          f"p95={stats.get('latency_p95_s', 0.0):.2f}s")
    print(f"  failures: {stats.get('failures', 0)}  "
          f"retries: {stats.get('retries', 0)}  "
          f"queue depth: {stats.get('queue_depth', 0)}  "
          f"checkpoints seen: {stats.get('checkpoints_seen', 0)}")
    if "activation_cache_hits" in stats:
        print(f"  activation cache: {stats.get('activation_cache_hits', 0)} "
              f"hit(s) / {stats.get('activation_cache_misses', 0)} miss(es) "
              f"(ratio {stats.get('activation_cache_hit_ratio', 0.0):.2f})")
    if stats.get("updated_at"):
        print(f"  updated: {stats['updated_at']}")


def _print_fleet(fleet: dict) -> None:
    """Render the fleet snapshot block of ``report`` (workers, leases, depth)."""
    print(f"fleet ({fleet.get('workers_live', 0)} live / "
          f"{fleet.get('workers_seen', 0)} seen worker(s)):")
    print(f"  leases: held={fleet.get('leases_held', 0)}  "
          f"expired={fleet.get('leases_expired_total', 0)}  "
          f"requeued={fleet.get('leases_requeued_total', 0)}")
    depth = fleet.get("queue_depth") or {}
    rendered = ", ".join(f"{tenant}={count}"
                         for tenant, count in sorted(depth.items()))
    print(f"  jobs: queued={fleet.get('jobs_queued', 0)}  "
          f"done={fleet.get('jobs_done', 0)}  "
          f"failed={fleet.get('jobs_failed', 0)}"
          + (f"  (per tenant: {rendered})" if rendered else ""))


def _cmd_report(args: argparse.Namespace) -> int:
    """``report``: render the store as tables, plus daemon stats if present.

    Scan and repair records are rendered as separate tables (they share the
    store but not a column layout).  Records are streamed shard by shard
    (:func:`~repro.service.store.stream_records`) rather than replayed into
    a store index first, so reporting on a large store is bounded by its
    largest shard, not its total size.
    """
    from ..obs.metrics import summarize_telemetry
    from .fleet import fleet_snapshot
    scans: List[ScanRecord] = []
    repairs: List[RepairRecord] = []
    detector = args.detector.lower() if args.detector else None
    for record in stream_records(args.store):
        if detector is not None and record.detector.lower() != detector:
            continue
        if isinstance(record, RepairRecord):
            repairs.append(record)
        elif isinstance(record, ScanRecord):
            scans.append(record)
    stats = _load_stats(args)
    fleet = fleet_snapshot(args.store)
    if args.as_json:
        scan_rows = [r.to_dict() for r in scans]
        clean_stats = ({k: v for k, v in stats.items() if k != "_path"}
                       if stats is not None else None)
        payload = {"records": scan_rows,
                   "repairs": [r.to_dict() for r in repairs],
                   "metrics": summarize_telemetry(scan_rows, clean_stats)}
        if clean_stats is not None:
            payload["stats"] = clean_stats
        if fleet is not None:
            payload["fleet"] = fleet
        print(json.dumps(payload, indent=2))
        return 0
    if not scans and not repairs:
        print(f"{args.store}: no records"
              + (f" for detector '{args.detector}'" if args.detector else "")
              + ".")
    if scans:
        _print_records(scans, as_json=False)
        backdoored = sum(1 for r in scans if r.is_backdoored)
        print(f"{len(scans)} record(s): {backdoored} backdoored, "
              f"{len(scans) - backdoored} clean.")
    if repairs:
        from ..eval.reporting import format_repair_records
        print(format_repair_records(repairs))
        succeeded = sum(1 for r in repairs if r.success)
        print(f"{len(repairs)} repair record(s): {succeeded} successful, "
              f"{len(repairs) - succeeded} not.")
    if stats is not None:
        _print_stats(stats)
    if fleet is not None:
        _print_fleet(fleet)
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    """``watch``: run the drop-directory daemon (see :mod:`..service.daemon`)."""
    from .daemon import DaemonConfig, WatchDaemon
    detectors = [d.strip() for d in args.detectors.split(",") if d.strip()]
    if not detectors:
        print("watch: no detectors given.", file=sys.stderr)
        return 2
    for detector in detectors:
        if detector.lower() not in KNOWN_DETECTORS:
            print(f"watch: unknown detector '{detector}'. "
                  f"Available: {', '.join(KNOWN_DETECTORS)}", file=sys.stderr)
            return 2
    config = DaemonConfig(
        watch_dir=args.directory, store_path=args.store, detectors=detectors,
        poll_interval=args.poll_interval, job_timeout=args.job_timeout,
        max_retries=args.retries, settle_polls=args.settle_polls,
        stats_path=args.stats, request_options=_scan_options(args),
        auto_repair=args.auto_repair,
        repair_options={"strategy": args.repair_strategy},
        telemetry=False if args.no_telemetry else None,
        backend=args.backend)
    daemon = WatchDaemon(config)
    print(f"watching {args.directory} -> store {args.store} "
          f"(detectors: {', '.join(detectors)}; "
          f"auto-repair: {'on' if args.auto_repair else 'off'}; "
          f"stats: {daemon.stats_path})")
    stats = daemon.run(max_iterations=args.max_iterations or None)
    print(f"served {stats['scans_served']} scan(s), "
          f"hit ratio {stats['cache_hit_ratio']:.2f}, "
          f"{stats['repairs_completed']} repair(s), "
          f"{stats['failures']} failure(s).")
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    """``store compact`` / ``store merge``: in-place store maintenance.

    ``compact`` on a path that holds no store fails instead of creating an
    empty one; ``merge`` creates its destination.
    """
    if args.store_command == "compact" and not os.path.exists(args.store):
        print(f"no store at {args.store}", file=sys.stderr)
        return 1
    store = open_store(args.store)
    if args.store_command == "compact":
        result = store.compact()
        print(f"{args.store}: compacted "
              f"{result.get('shards', 1)} shard(s)/file(s): "
              f"{result['lines_before']} line(s) -> "
              f"{result['records_after']} record(s) "
              f"({result['dropped']} superseded line(s) dropped).")
        return 0
    result = store.merge(args.source)
    print(f"{args.store}: merged {result['merged']} record(s) from "
          f"{args.source} ({result['skipped']} already-present key(s) "
          "skipped).")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """``trace``: list recorded traces, or render one trace's span tree."""
    from ..obs.render import (format_trace_summaries, render_trace,
                              summarize_traces)
    spans_path = sidecar_path(args.store, SPANS_NAME)
    if args.trace_id:
        spans = read_spans(spans_path, trace_id=args.trace_id)
        if not spans:
            print(f"{spans_path}: no spans recorded for trace "
                  f"'{args.trace_id}'.", file=sys.stderr)
            return 1
        print(render_trace(spans, args.trace_id))
        return 0
    spans = read_spans(spans_path)
    if not spans:
        print(f"{spans_path}: no spans recorded (telemetry off, or no "
              "scans ran yet).")
        return 0
    print(format_trace_summaries(summarize_traces(spans)))
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    """``metrics``: Prometheus text exposition of the store + daemon stats.

    Records are streamed as ``report`` streams them, so a path that holds
    no store renders a zeroed exposition and creates nothing.
    """
    from ..obs.metrics import build_service_registry
    from .fleet import fleet_snapshot
    stats = _load_stats(args)
    if stats is not None:
        stats = {k: v for k, v in stats.items() if k != "_path"}
    fleet = fleet_snapshot(args.store)
    if fleet is not None:
        stats = dict(stats or {})
        stats["fleet"] = fleet
    rows = [record.to_dict() for record in stream_records(args.store)
            if isinstance(record, ScanRecord)]
    text = build_service_registry(rows, stats).render()
    if args.output:
        atomic_write(args.output, text)
        print(f"wrote {len(text.splitlines())} sample/header line(s) to "
              f"{args.output}")
        return 0
    sys.stdout.write(text)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """``serve``: run the HTTP scan/repair API until interrupted."""
    from .api import ApiServer
    server = ApiServer(args.store, host=args.host, port=args.port,
                       workers=args.workers, job_retries=args.retries,
                       telemetry=False if args.no_telemetry else None,
                       backend=args.backend)
    print(f"serving http://{server.host}:{server.port} "
          f"(store: {args.store}; backend: {server.scheduler.backend.name}; "
          f"retries: {args.retries}) — Ctrl-C to drain and exit")
    server.serve_forever()
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    """``worker``: serve a store's fleet queue until stopped.

    Any number of workers (on any host sharing the store's filesystem) can
    drain one queue; lease-based ownership guarantees each job runs under
    exactly one live worker at a time, and a worker that dies mid-job
    forfeits its lease for any surviving reader to requeue.
    """
    from .fleet import run_worker
    print(f"worker draining fleet queue of {args.store} "
          f"(lease: {args.lease_seconds:.0f}s) — Ctrl-C to exit")
    try:
        executed = run_worker(
            args.store, worker_id=args.worker_id,
            lease_seconds=args.lease_seconds,
            poll_interval=args.poll_interval,
            max_jobs=args.max_jobs or None,
            idle_timeout=args.idle_timeout or None)
    except KeyboardInterrupt:
        print("worker interrupted; lease(s) will expire and requeue.")
        return 0
    print(f"executed {executed} job(s).")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    """``experiment``: train + scan one paper table along the scenario axis.

    With ``--repair-strategies`` the same table runs through the
    detect -> repair -> verify sweep instead, printing true ASR
    before/after per case x detector x strategy.
    """
    from ..eval.experiments import (
        SCALES,
        TABLE_CONFIGS,
        run_experiment,
        run_repair_sweep,
        scenario_grid_config,
    )
    from ..eval.reporting import (
        detection_table_columns,
        format_table,
        repair_sweep_columns,
    )

    if args.table not in TABLE_CONFIGS:
        print(f"experiment: unknown table '{args.table}'. "
              f"Available: {sorted(TABLE_CONFIGS)}", file=sys.stderr)
        return 2
    if args.scale not in SCALES:
        print(f"experiment: unknown scale '{args.scale}'. "
              f"Available: {sorted(SCALES)}", file=sys.stderr)
        return 2
    scenarios = [s.strip() for s in args.scenarios.split(",") if s.strip()]
    if not scenarios:
        print("experiment: no scenarios given.", file=sys.stderr)
        return 2
    config = TABLE_CONFIGS[args.table](args.scale)
    if args.detectors:
        detectors = tuple(d.strip() for d in args.detectors.split(",")
                          if d.strip())
        config = dataclasses.replace(config, detectors=detectors)
    cases = ([c.strip() for c in args.cases.split(",") if c.strip()]
             if args.cases else None)
    config = scenario_grid_config(
        config, scenarios, cases=cases,
        source_classes=_parse_classes(args.source_classes))
    if args.inversion_mode != config.inversion_mode:
        config = dataclasses.replace(config,
                                     inversion_mode=args.inversion_mode)
    if args.repair_strategies:
        strategies = [s.strip() for s in args.repair_strategies.split(",")
                      if s.strip()]
        for strategy in strategies:
            if strategy not in REPAIR_STRATEGIES:
                print(f"experiment: unknown repair strategy '{strategy}'. "
                      f"Available: {', '.join(REPAIR_STRATEGIES)}",
                      file=sys.stderr)
                return 2
        if args.workers and args.workers > 1:
            print("experiment: --repair-strategies runs the sweep serially; "
                  f"--workers {args.workers} is ignored.", file=sys.stderr)
        rows = run_repair_sweep(config, seed=args.seed, strategies=strategies)
        if args.as_json:
            print(json.dumps(rows, indent=2))
            return 0
        print(format_table(rows, columns=repair_sweep_columns,
                           title=f"{config.name} [{args.scale}] repair sweep "
                                 f"({','.join(strategies)})"))
        return 0
    scheduler = (ScanScheduler(workers=args.workers)
                 if args.workers and args.workers > 1 else None)
    result = run_experiment(config, seed=args.seed, scheduler=scheduler)
    rows = result.rows()
    if args.as_json:
        print(json.dumps(rows, indent=2))
        return 0
    print(format_table(rows, columns=detection_table_columns,
                       title=f"{config.name} [{args.scale}] x "
                             f"scenarios({','.join(scenarios)})"))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point: parse ``argv`` and dispatch to the subcommand.

    Args:
        argv: Argument list (default: ``sys.argv[1:]``).

    Returns:
        Process exit code (0 success, 1 runtime error, 2 usage error).
    """
    args = build_parser().parse_args(argv)
    if args.log_level:
        set_log_level(args.log_level)
    handlers = {"scan": _cmd_scan, "grid": _cmd_grid, "repair": _cmd_repair,
                "report": _cmd_report, "experiment": _cmd_experiment,
                "watch": _cmd_watch, "store": _cmd_store,
                "trace": _cmd_trace, "metrics": _cmd_metrics,
                "serve": _cmd_serve, "worker": _cmd_worker}
    try:
        return handlers[args.command](args)
    except (OSError, KeyError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
