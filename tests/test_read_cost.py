"""Reads cost what they read: a cache hit replays one shard and parses no
checkpoint, a command imports only its own modules, and a cold hit
compiles none of the inversion stack, never imports NumPy, and loads none
of the stdlib or ``repro`` modules that only a miss or another command
runs.

Decoded store lines are counted by wrapping
``repro.service.store._iter_jsonl_records``, the one function every replay
reads through, so each test states exactly which shards a call read;
checkpoint parses likewise by wrapping
``repro.service.fingerprint.read_checkpoint_fingerprint``.  Import tests
run in a fresh interpreter, because this process has long imported
everything.
"""

import collections
import hashlib
import json
import os
import platform
import subprocess
import sys

import numpy as np
import pytest

from repro.models import MODEL_BUILDERS, build_model
from repro.nn.serialization import save_model
from repro.service import ScanRecord, ShardedResultStore, open_store
from repro.service import fingerprint as fingerprint_module
from repro.service import store as store_module
from repro.service.api import ApiServer
from repro.service.cli import main as cli_main

#: Records the padded store holds: spread over ~160 of the 256 shards.
PADDING = 256
#: CLI flags of a tiny, fast scan.
TINY_FLAGS = ["--detector", "usb", "--classes", "0,1,2", "--iterations", "2",
              "--clean-budget", "10", "--samples-per-class", "3"]
#: Modules only ``serve``, ``worker``, ``watch`` and ``repair`` need;
#: importing the CLI must load none of them.
HEAVY_MODULES = ("http.server", "repro.service.api", "repro.service.fleet",
                 "repro.service.daemon", "repro.service.repair",
                 "repro.mitigation")
#: Modules only a cache miss runs: the autograd kernels, the inversion
#: engines, the detectors, the architectures and the attacks.
MISS_MODULES = ("repro.nn.functional", "repro.nn.tensor", "repro.nn.layers",
                "repro.core.detection", "repro.core.mega", "repro.core.uap",
                "repro.core.trigger_optimizer", "repro.core.usb",
                "repro.models", "repro.defenses", "repro.attacks.badnet",
                "repro.mitigation")
#: What ``scheduler.load_inversion_stack`` imports.
STACK_MODULES = ("repro.core.detection", "repro.core.mega", "repro.models",
                 "repro.defenses")
#: Modules a cache hit does not run, so no cached command loads them: the
#: stdlib loggers, ids, FFI and clocks, the metrics registry and span
#: renderer (``report``, ``metrics``, ``trace``) and the router
#: (``--strategy``).  ``tools/import_check.py`` holds the same list.
HIT_UNUSED = ("logging", "uuid", "platform", "ctypes", "datetime",
              "repro.obs.metrics", "repro.obs.render",
              "repro.service.routing")
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def _record(i):
    fingerprint = hashlib.sha256(str(i).encode()).hexdigest()
    digest = f"{i:016x}"
    return ScanRecord(
        key=f"{fingerprint}:usb:{digest}", fingerprint=fingerprint,
        config_digest=digest, checkpoint=f"ckpt_{i}.npz", model="basic_cnn",
        dataset="cifar10", detector="usb", is_backdoored=False,
        flagged_classes=(), suspect_class=None, seconds=1.0)


def _pad(path):
    store = ShardedResultStore(path)
    store.add_all(_record(i) for i in range(PADDING))
    return store


def _save_checkpoint(path):
    save_model(build_model("basic_cnn", num_classes=10, in_channels=3,
                           image_size=12, rng=np.random.default_rng(5)),
               path, metadata={"model": "basic_cnn", "dataset": "cifar10",
                               "image_size": 12})
    return path


def _run_fresh(code, *args):
    """Run ``code`` in a fresh interpreter; its last stdout line as JSON."""
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code, *args], env=env,
                         check=True, capture_output=True, text=True,
                         timeout=120).stdout
    return json.loads(out.strip().splitlines()[-1])


def _shard_lines(store, key):
    path = os.path.join(store.path, store.shard_name(key))
    with open(path, encoding="utf-8") as handle:
        return sum(1 for line in handle if line.strip())


@pytest.fixture
def decoded(monkeypatch):
    """Shard file name -> store lines decoded since the fixture was set up."""
    counts = collections.Counter()
    original = store_module._iter_jsonl_records

    def counting(path):
        for record in original(path):
            counts[os.path.basename(path)] += 1
            yield record

    monkeypatch.setattr(store_module, "_iter_jsonl_records", counting)
    return counts


@pytest.fixture
def parsed(monkeypatch):
    """Checkpoint paths parsed since the fixture was set up."""
    calls = []
    original = fingerprint_module.read_checkpoint_fingerprint

    def counting(path, content=None):
        calls.append(path)
        return original(path, content)

    monkeypatch.setattr(fingerprint_module, "read_checkpoint_fingerprint",
                        counting)
    return calls


class TestOneShardRead:
    def test_open_decodes_nothing(self, tmp_path, decoded):
        path = str(tmp_path / "store")
        _pad(path)
        assert len(ShardedResultStore(path).shard_names()) > 100
        decoded.clear()
        ShardedResultStore(path)
        open_store(path)
        assert decoded == {}

    def test_lookup_decodes_its_key_shard_once(self, tmp_path, decoded):
        path = str(tmp_path / "store")
        _pad(path)
        decoded.clear()
        store = ShardedResultStore(path)
        key = _record(7).key
        assert store.lookup(key).checkpoint == "ckpt_7.npz"
        shard = store.shard_name(key)
        assert decoded == {shard: _shard_lines(store, key)}
        decoded.clear()
        # Every other key of that shard, and a miss in it, answer from
        # memory.
        neighbours = [r.key for r in map(_record, range(PADDING))
                      if store.shard_name(r.key) == shard]
        for other in neighbours:
            assert store.lookup(other) is not None
        assert store.lookup(shard[len("shard-"):-len(".jsonl")]
                            + "0" * 62 + ":usb:missing") is None
        assert decoded == {}

    def test_full_reads_still_see_every_record(self, tmp_path, decoded):
        path = str(tmp_path / "store")
        _pad(path)
        store = ShardedResultStore(path)
        store.lookup(_record(3).key)
        assert len(store) == PADDING
        assert [r.key for r in store.records()] == \
            [r.key for r in store_module.stream_records(path)]

    @pytest.mark.parametrize("as_json", [True, False])
    def test_cli_cache_hit_decodes_one_shard(self, tmp_path, capsys, decoded,
                                             parsed, as_json):
        store_path = str(tmp_path / "store")
        _pad(store_path)
        checkpoint = str(tmp_path / "m.npz")
        save_model(build_model("basic_cnn", num_classes=10, in_channels=3,
                               image_size=12,
                               rng=np.random.default_rng(5)),
                   checkpoint, metadata={"model": "basic_cnn",
                                         "dataset": "cifar10",
                                         "image_size": 12})
        args = ["scan", checkpoint, "--store", store_path, *TINY_FLAGS]
        assert cli_main(args + ["--json"]) == 0
        [computed] = json.loads(capsys.readouterr().out)
        assert not computed["cache_hit"]
        assert parsed == [checkpoint]
        decoded.clear()
        parsed.clear()

        # A new command, and so a new scheduler: the file's digest finds
        # the fingerprint the first one memoized beside the store.
        assert cli_main(args + (["--json"] if as_json else [])) == 0
        out = capsys.readouterr().out
        if as_json:
            assert json.loads(out)[0]["cache_hit"]
        else:
            assert "cache hit" in out and "hits=1 misses=0" in out
        store = ShardedResultStore(store_path)
        assert decoded == {store.shard_name(computed["key"]):
                           _shard_lines(store, computed["key"])}
        assert parsed == []

    def test_server_lookup_decodes_nothing(self, tmp_path, decoded):
        # A long-lived server replays the store at start, so no request
        # pays for a shard's first read.
        path = str(tmp_path / "store")
        _pad(path)
        api = ApiServer(path, port=0)
        try:
            decoded.clear()
            for i in (0, 100, 200):
                assert api.scheduler.store.lookup(_record(i).key) is not None
            assert decoded == {}
        finally:
            api.close()


def test_cli_import_loads_only_what_every_command_needs():
    code = (
        "import json, sys\n"
        "import repro.service.cli\n"
        f"loaded = [m for m in {HEAVY_MODULES!r} if m in sys.modules]\n"
        "import repro.service as service\n"
        "missing = [n for n in service.__all__\n"
        "           if getattr(service, n, None) is None]\n"
        "print(json.dumps({'loaded': loaded, 'missing': missing}))\n")
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    assert result == {"loaded": [], "missing": []}


#: Cached commands through ``cli.main`` — the ``scan`` hit given on the
#: command line as JSON and as text, the cached ``grid`` as JSON and as
#: text, and last the same scan routed by ``--strategy fastest`` (its USB
#: probe is the cached scan and escalates nowhere) — each noting which of
#: NumPy and ``HIT_UNUSED`` were loaded after it; then the same scan with
#: another seed, a miss.
COLD_HIT = """
import contextlib, io, json, sys
from repro.service.cli import main

argv = json.loads(sys.argv[1])
watched = ["numpy"] + argv["unused"]
steps = []

def run(name, args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(args) == 0
    steps.append([name, [m for m in watched if m in sys.modules]])
    return out.getvalue()

hit = json.loads(run("scan --json", argv["scan"] + ["--json"]))[0]
text = run("scan", argv["scan"])
grid = json.loads(run("grid --json", argv["grid"] + ["--json"]))[0]
grid_text = run("grid", argv["grid"])
routed = run("scan --strategy", argv["scan"] + ["--strategy", "fastest"])
loaded = [m for m in sys.modules if m == "repro" or m.startswith("repro.")]
miss = json.loads(run("miss", argv["scan"] + ["--seed", "1", "--json"]))[0]
print(json.dumps({"hit": hit["cache_hit"], "text": text, "routed": routed,
                  "grid": [grid["cache_hit"], grid_text], "steps": steps,
                  "loaded": sorted(loaded), "miss": miss["cache_hit"],
                  "keys": [hit["key"], miss["key"]]}))
"""


def test_cold_cache_hit_loads_none_of_the_miss_path(tmp_path, capsys):
    store_path = str(tmp_path / "store")
    checkpoint = _save_checkpoint(str(tmp_path / "m.npz"))
    args = ["scan", checkpoint, "--store", store_path, *TINY_FLAGS]
    assert cli_main(args + ["--json"]) == 0
    [computed] = json.loads(capsys.readouterr().out)
    assert not computed["cache_hit"]

    grid = ["grid", checkpoint, "--store", store_path, "--detectors", "usb",
            *TINY_FLAGS[2:]]
    result = _run_fresh(COLD_HIT, json.dumps({"scan": args, "grid": grid,
                                              "unused": HIT_UNUSED}))
    assert result["hit"] is True
    assert "(cache hit)" in result["text"] and "class 2: L1=" in result["text"]
    assert "usb    clean" in result["routed"] and "skipped tabor" in \
        result["routed"] and "(cache hit)" in result["routed"]
    assert result["grid"][0] is True and "hit" in result["grid"][1]
    # No cached command imports NumPy or a module of HIT_UNUSED, except
    # that routing loads the router and logs its triage line; the miss
    # after them imports NumPy.
    assert result["steps"][:-1] == [
        ["scan --json", []], ["scan", []], ["grid --json", []], ["grid", []],
        ["scan --strategy", ["logging", "repro.service.routing"]],
    ], result["loaded"]
    assert result["steps"][-1][0] == "miss"
    assert "numpy" in result["steps"][-1][1]
    assert [m for m in MISS_MODULES if m in result["loaded"]] == []
    assert len(result["loaded"]) <= 25, result["loaded"]
    # The same process still computes a miss, under its own key.
    assert result["miss"] is False
    assert result["keys"][0] == computed["key"] != result["keys"][1]


#: Import one module alone; report whether ``ctypes`` loaded and, if
#: ``repro.nn.tensor`` loaded, whether it tuned the allocator.
ALLOCATOR = """
import importlib, json, sys
importlib.import_module(sys.argv[1])
tensor = sys.modules.get("repro.nn.tensor")
print(json.dumps(["ctypes" in sys.modules,
                  getattr(tensor, "_ALLOCATOR_TUNED", None)]))
"""


def test_reading_a_checkpoint_loads_no_ctypes():
    assert _run_fresh(ALLOCATOR, "repro.nn.serialization") == [False, None]


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the allocator tuning is glibc's mallopt")
@pytest.mark.parametrize("opt_out", [False, True])
def test_tensor_import_tunes_the_allocator(monkeypatch, opt_out):
    if opt_out:
        monkeypatch.setenv("REPRO_NO_MALLOC_TUNING", "1")
    else:
        monkeypatch.delenv("REPRO_NO_MALLOC_TUNING", raising=False)
    assert _run_fresh(ALLOCATOR, "repro.nn.tensor") == [True, not opt_out]


def test_unknown_model_exits_2_and_names_the_models(capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli_main(["scan", "m.npz", "--model", "bogus"])
    assert exit_info.value.code == 2
    error = capsys.readouterr().err
    assert "--model" in error and "bogus" in error
    assert all(name in error for name in MODEL_BUILDERS)


#: A two-scan ``pool`` batch whose job function first notes whether the
#: inversion stack was already imported in its (forked) child.
POOL_BATCH = """
import json, os, sys
from repro.service import scheduler as scheduler_module
from repro.service import ScanRequest, ScanScheduler

stack = %r
original = scheduler_module.execute_resolved

def probed(resolved):
    preloaded = all(m in sys.modules for m in stack)
    record = original(resolved)
    record.extra["preloaded"] = float(preloaded)
    return record

scheduler_module.execute_resolved = probed
before = [m for m in stack if m in sys.modules]
records = ScanScheduler(workers=2, telemetry=False).scan([
    ScanRequest(checkpoint=sys.argv[1], detector=detector, classes=(0, 1, 2),
                iterations=2, clean_budget=10, samples_per_class=3)
    for detector in ("usb", "nc")])
print(json.dumps({"before": before, "parent": os.getpid(),
                  "jobs": [[r.cache_hit, r.worker_pid, r.extra["preloaded"]]
                           for r in records]}))
"""

#: A fleet worker that serves an empty queue once, noting at its first
#: ``announce`` whether the inversion stack was imported.
FLEET_WORKER = """
import json, sys
from repro.service.fleet import FleetWorker

stack = %r
before = [m for m in stack if m in sys.modules]
worker = FleetWorker(sys.argv[1], poll_interval=0.01, idle_timeout=0.0)
seen = []
announce = worker.queue.announce

def probed(*args, **kwargs):
    seen.append(all(m in sys.modules for m in stack))
    return announce(*args, **kwargs)

worker.queue.announce = probed
worker.run()
print(json.dumps({"before": before, "seen": seen}))
"""


class TestStackLoadsOncePerProcess:
    def test_pool_children_inherit_the_stack(self, tmp_path):
        checkpoint = _save_checkpoint(str(tmp_path / "m.npz"))
        result = _run_fresh(POOL_BATCH % (STACK_MODULES,), checkpoint)
        assert result["before"] == []
        assert len(result["jobs"]) == 2
        for cache_hit, worker_pid, preloaded in result["jobs"]:
            assert not cache_hit and worker_pid != result["parent"]
            assert preloaded == 1.0

    def test_fleet_worker_loads_the_stack_before_it_announces(self,
                                                              tmp_path):
        result = _run_fresh(FLEET_WORKER % (STACK_MODULES,),
                            str(tmp_path / "store"))
        assert result["before"] == []
        assert result["seen"][0] is True
