"""Reads cost what they read: a cache hit replays one shard, a command
imports only its own modules.

Decoded store lines are counted by wrapping
``repro.service.store._iter_jsonl_records``, the one function every replay
reads through, so each test states exactly which shards a call read.
"""

import collections
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.models import build_model
from repro.nn.serialization import save_model
from repro.service import ScanRecord, ShardedResultStore, open_store
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
                                             as_json):
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
        decoded.clear()

        assert cli_main(args + (["--json"] if as_json else [])) == 0
        out = capsys.readouterr().out
        if as_json:
            assert json.loads(out)[0]["cache_hit"]
        else:
            assert "cache hit" in out and "hits=1 misses=0" in out
        store = ShardedResultStore(store_path)
        assert decoded == {store.shard_name(computed["key"]):
                           _shard_lines(store, computed["key"])}

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
