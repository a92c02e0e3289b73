"""Tests for sizing the OpenBLAS pool to an executor's share of the host.

:func:`repro.nn.blas.share_cores` must give each of N side-by-side
executors ``max(1, min(start, cpus // N))`` threads, never raise the pool
above the size the process started with, and leave verdicts untouched.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.models import build_model
from repro.nn.blas import _openblas, share_cores, threads
from repro.nn.serialization import save_model
from repro.service import ScanRequest, ScanScheduler
from repro.service.backends import PoolBackend

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CPUS = len(os.sched_getaffinity(0))


@pytest.fixture()
def openblas():
    """The bound OpenBLAS at its start size, restored afterwards."""
    blas = _openblas()
    if blas is None:
        pytest.skip("no OpenBLAS is loaded into this process")
    blas.set_threads(blas.start)
    yield blas
    blas.set_threads(blas.start)


def _pool_size(_):
    return threads()


def test_pool_children_split_the_cores(openblas):
    start = openblas.start
    assert PoolBackend(2).run(_pool_size, [0, 1]) == \
        [max(1, min(start, CPUS // 2))] * 2
    # A single job (one mega group, say) keeps every core.
    assert PoolBackend(2).run(_pool_size, [0]) == [max(1, min(start, CPUS))]
    assert threads() == start  # the submitting process keeps its pool


def test_operator_thread_count_is_a_ceiling(openblas):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    code = ("from repro.nn.blas import share_cores, threads; "
            "print(share_cores(1), threads())")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=120)
    assert out.stdout.split() == ["1", "1"]


def _payload(record):
    """A record's payload without execution and timing fields."""
    payload = record.to_dict()
    for name in ("worker_pid", "created_at", "seconds", "telemetry"):
        payload.pop(name, None)
    payload["detection"].pop("seconds_total", None)
    return json.dumps(payload, sort_keys=True)


def test_verdicts_do_not_depend_on_the_pool_size(openblas, tmp_path):
    if openblas.start == 1:
        pytest.skip("the pool starts at one thread; nothing to compare")
    checkpoint = str(tmp_path / "model.npz")
    save_model(build_model("basic_cnn", num_classes=10, in_channels=3,
                           image_size=12, rng=np.random.default_rng(0)),
               checkpoint, metadata={"model": "basic_cnn",
                                     "dataset": "cifar10", "image_size": 12})
    requests = [ScanRequest(checkpoint=checkpoint, detector="usb",
                            classes=(0, 1, 2), clean_budget=10,
                            samples_per_class=3, iterations=2, uap_passes=1,
                            inversion_mode=mode)
                for mode in ("batched", "mega")]

    def scan():
        records = ScanScheduler(backend="inline",
                                telemetry=False).scan(requests)
        return [_payload(record) for record in records]

    full = scan()
    assert share_cores(CPUS) == 1
    assert scan() == full
