#!/usr/bin/env python
"""End-to-end smoke test of the watch daemon, exercised through the real CLI.

Creates a temp drop directory, saves one (untrained, tiny) checkpoint into
it, runs ``python -m repro watch --detectors usb,nc`` for a few bounded
iterations with a job timeout and retry budget, so one poll runs two jobs
in order, then asserts:

1. both verdicts landed in the sharded result store,
2. the stats endpoint file exists with the documented metrics fields and
   counts two scans served, no failure and an empty queue, and
3. ``python -m repro report`` surfaces both the records and the metrics.

Run by ``make daemon-smoke`` (and CI).  Exits non-zero on any failure.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_ROOT, "src"))

import numpy as np  # noqa: E402

from repro.models import build_model  # noqa: E402
from repro.nn.serialization import save_model  # noqa: E402
from repro.service import ShardedResultStore  # noqa: E402
from repro.service.cli import main as cli_main  # noqa: E402

REQUIRED_STATS_FIELDS = (
    "scans_served", "cache_hits", "cache_misses", "cache_hit_ratio",
    "latency_p50_s", "latency_p95_s", "failures", "retries", "queue_depth",
    "checkpoints_seen", "iterations", "updated_at",
)


def main() -> int:
    """Run the smoke sequence; return a process exit code."""
    with tempfile.TemporaryDirectory(prefix="repro_daemon_smoke_") as tmp:
        drop = os.path.join(tmp, "drop")
        store_path = os.path.join(tmp, "scans")
        os.makedirs(drop)
        model = build_model("basic_cnn", num_classes=10, in_channels=3,
                            image_size=12, rng=np.random.default_rng(0))
        save_model(model, os.path.join(drop, "candidate.npz"),
                   metadata={"model": "basic_cnn", "dataset": "cifar10",
                             "image_size": 12})

        rc = cli_main([
            "watch", drop, "--store", store_path, "--detectors", "usb,nc",
            "--poll-interval", "0.1", "--settle-polls", "1",
            "--max-iterations", "4", "--job-timeout", "300", "--retries", "1",
            "--classes", "0,1,2", "--clean-budget", "10",
            "--samples-per-class", "3", "--iterations", "2"])
        if rc != 0:
            print(f"FAIL: watch exited {rc}", file=sys.stderr)
            return 1

        store = ShardedResultStore(store_path)
        records = store.records()
        if len(records) != 2:
            print(f"FAIL: expected 2 store records, found {len(records)}",
                  file=sys.stderr)
            return 1
        if sorted(record.detector for record in records) != ["NC", "USB"] or \
                not all(record.checkpoint.endswith("candidate.npz")
                        for record in records):
            print(f"FAIL: unexpected records "
                  f"{[record.as_row() for record in records]}",
                  file=sys.stderr)
            return 1

        stats_path = os.path.join(store_path, "stats.json")
        if not os.path.exists(stats_path):
            print(f"FAIL: stats endpoint {stats_path} missing", file=sys.stderr)
            return 1
        stats = json.load(open(stats_path))
        missing = [f for f in REQUIRED_STATS_FIELDS if f not in stats]
        if missing:
            print(f"FAIL: stats missing fields {missing}", file=sys.stderr)
            return 1
        if stats["scans_served"] != 2 or stats["failures"] != 0 or \
                stats["queue_depth"] != 0:
            print(f"FAIL: unexpected stats {stats}", file=sys.stderr)
            return 1

        rc = cli_main(["report", "--store", store_path])
        if rc != 0:
            print(f"FAIL: report exited {rc}", file=sys.stderr)
            return 1

    print("daemon smoke OK: checkpoint scanned by two detectors, verdicts "
          "stored, metrics published.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
