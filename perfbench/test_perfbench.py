"""Self-test of the benchmark: every workload at tiny size.

Run from the repository root (opt-in, not part of the tier-1 suite)::

    python3 -m pytest perfbench/test_perfbench.py -q

Each workload runs one shrunken round with one unreadable checkpoint mixed
into its traffic: the run must finish, count that request as failed, and
still emit every end-to-end metric of ``BENCHMARK.json`` with its unit.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run as bench  # noqa: E402

with open(os.path.join(bench.ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    SPEC = json.load(_f)


def _assert_metrics(result: dict, declared: list) -> None:
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"], metric["name"]
        assert isinstance(emitted["value"], float), metric["name"]
    assert set(result["metrics"]) == {m["name"] for m in declared}


@pytest.mark.parametrize("workload", sorted(bench.WORKLOAD_NAMES))
def test_tiny_run_counts_a_corrupt_checkpoint_and_emits_every_metric(
        workload):
    result, info = bench.run(workload, seed=5, seconds=0.0, trace=False,
                             corrupt=True, tiny=True)
    _assert_metrics(result, SPEC["end_to_end"])
    assert result["correct"], info["details"]["notes"]
    assert result["failed"] >= 1
    assert result["attempted"] > result["failed"]
    assert result["metrics"]["success_frac"]["value"] < 1.0
    assert info["env"]["nproc"] == os.cpu_count()


def test_traced_run_emits_every_layer_metric():
    result, info = bench.run("cli_hit", seed=6, seconds=0.0, trace=True,
                             tiny=True)
    _assert_metrics(result, SPEC["per_layer"])
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"]["store.records_replayed"]["value"] > 1000
    assert "cli.import" in info["layers"]
