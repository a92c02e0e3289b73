"""The fingerprint memo: a checkpoint's bytes are parsed once, ever.

Resolution digests a checkpoint's raw file bytes and looks the digest up
in the scheduler's :class:`~repro.service.fingerprint.FingerprintMemo`,
kept beside the store (``<store>/fingerprints/<digest>.json``).  Only an
unseen digest is parsed.  Parses are counted by wrapping
``repro.service.fingerprint.read_checkpoint_fingerprint``, the one parser
the memo calls, so each test states exactly which files were parsed.
"""

import errno
import io
import json
import logging
import os
import shutil

import numpy as np
import pytest

from repro.models import build_model
from repro.nn.serialization import METADATA_KEY, save_model
from repro.obs.trace import PROFILER, TRACER, read_spans
from repro.service import fingerprint as fingerprint_module
from repro.service import (FingerprintMemo, ScanRequest, ScanScheduler,
                           open_store)
from repro.service.cli import main as cli_main
from repro.service.fingerprint import (FINGERPRINTS_NAME,
                                       read_checkpoint_fingerprint)
from repro.service.scheduler import resolve_request
from repro.service.store import sidecar_path

METADATA = {"model": "basic_cnn", "dataset": "cifar10", "image_size": 12}
#: CLI flags of a tiny, fast scan.
TINY_FLAGS = ["--detector", "usb", "--classes", "0,1,2", "--iterations", "2",
              "--clean-budget", "10", "--samples-per-class", "3"]


def _model(seed):
    return build_model("basic_cnn", num_classes=10, in_channels=3,
                       image_size=12, rng=np.random.default_rng(seed))


def _save(path, seed=5):
    save_model(_model(seed), str(path), metadata=METADATA)
    return str(path)


def _plain_bytes(seed):
    """An uncompressed checkpoint: its size depends on the shapes alone."""
    arrays = dict(_model(seed).state_dict())
    arrays[METADATA_KEY] = np.array(json.dumps(METADATA, sort_keys=True))
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    return buffer.getvalue()


def _request(path, **overrides):
    fields = dict(checkpoint=str(path), detector="usb", classes=(0, 1, 2),
                  clean_budget=10, samples_per_class=3, iterations=2,
                  uap_passes=1, seed=0)
    fields.update(overrides)
    return ScanRequest(**fields)


def _entries(directory):
    """The memo entry files in ``directory`` (none if it does not exist)."""
    if not os.path.isdir(directory):
        return []
    return sorted(name for name in os.listdir(directory)
                  if name.endswith(".json"))


@pytest.fixture(autouse=True)
def _clean_singletons():
    """Commands with telemetry on leave the process-wide tracer running."""
    TRACER.reset()
    PROFILER.disable()
    PROFILER.reset()
    yield
    TRACER.reset()
    PROFILER.disable()
    PROFILER.reset()


@pytest.fixture
def parsed(monkeypatch):
    """Base names of the checkpoints parsed since the fixture was set up."""
    calls = []
    original = fingerprint_module.read_checkpoint_fingerprint

    def counting(path, content=None):
        calls.append(os.path.basename(path))
        return original(path, content)

    monkeypatch.setattr(fingerprint_module, "read_checkpoint_fingerprint",
                        counting)
    return calls


def test_a_seen_checkpoint_is_not_parsed_again(tmp_path, parsed):
    path = _save(tmp_path / "m.npz")
    expected = read_checkpoint_fingerprint(path)
    parsed.clear()
    directory = str(tmp_path / "memo")
    memo = FingerprintMemo(directory)
    assert memo.read(path) == expected
    assert parsed == ["m.npz"] and len(_entries(directory)) == 1
    # The same memo answers from memory, a new one over the same
    # directory from the entry file, and in-memory-only memos keep theirs.
    assert memo.read(path) == expected
    assert FingerprintMemo(directory).read(path) == expected
    in_memory = FingerprintMemo()
    assert in_memory.read(path) == in_memory.read(path) == expected
    assert parsed == ["m.npz", "m.npz"]
    # The resolved key is the parsed one.
    request = _request(path)
    assert resolve_request(request, memo).key == resolve_request(request).key


@pytest.mark.parametrize("layout", ["store", "scans.jsonl"])
def test_the_memo_sits_beside_either_store_layout(tmp_path, parsed, layout):
    store_path = str(tmp_path / layout)
    scheduler = ScanScheduler(store=open_store(store_path), telemetry=False)
    directory = sidecar_path(store_path, FINGERPRINTS_NAME)
    assert scheduler.fingerprints.directory == directory
    resolve_request(_request(_save(tmp_path / "m.npz")),
                    scheduler.fingerprints)
    assert len(_entries(directory)) == 1


def test_a_checkpoint_rewritten_in_place_is_parsed_again(tmp_path, parsed):
    # Same path, inode, size and mtime, other weights: only the content
    # tells them apart, and the content is the address.
    path = str(tmp_path / "m.npz")
    first, second = _plain_bytes(1), _plain_bytes(2)
    assert len(first) == len(second) and first != second
    with open(path, "wb") as handle:
        handle.write(first)
    scheduler = ScanScheduler(store=open_store(str(tmp_path / "store")),
                              telemetry=False)
    [before] = scheduler.scan([_request(path)])
    stat = os.stat(path)
    with open(path, "r+b") as handle:
        handle.write(second)
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    after_stat = os.stat(path)
    assert (after_stat.st_ino, after_stat.st_size, after_stat.st_mtime_ns) \
        == (stat.st_ino, stat.st_size, stat.st_mtime_ns)

    [after] = scheduler.scan([_request(path)])
    assert parsed == ["m.npz", "m.npz"]
    assert not before.cache_hit and not after.cache_hit
    assert after.fingerprint == read_checkpoint_fingerprint(path)[1] \
        != before.fingerprint
    assert scheduler.cache_misses == 2


def test_identical_copies_share_one_entry(tmp_path, parsed):
    original = _save(tmp_path / "a.npz")
    copy = str(tmp_path / "b.npz")
    shutil.copyfile(original, copy)
    directory = str(tmp_path / "memo")
    assert FingerprintMemo(directory).read(original) == \
        FingerprintMemo(directory).read(copy)
    assert parsed == ["a.npz"] and len(_entries(directory)) == 1


@pytest.mark.parametrize("damage", [
    lambda text: text[:len(text) // 2],
    lambda text: "\x00\xff not json",
    lambda text: "[1, 2]",
    lambda text: json.dumps({**json.loads(text), "digest": "0" * 64}),
    lambda text: json.dumps({**json.loads(text), "fingerprint": "zz"}),
    lambda text: json.dumps({**json.loads(text), "metadata": "model"}),
], ids=["truncated", "binary", "foreign", "other_digest", "bad_fingerprint",
        "bad_metadata"])
def test_a_bad_entry_is_ignored_and_rewritten(tmp_path, parsed, damage):
    path = _save(tmp_path / "m.npz")
    directory = str(tmp_path / "memo")
    expected = FingerprintMemo(directory).read(path)
    [name] = _entries(directory)
    entry_path = os.path.join(directory, name)
    with open(entry_path, encoding="utf-8") as handle:
        good = handle.read()
    with open(entry_path, "w", encoding="utf-8") as handle:
        handle.write(damage(good))
    parsed.clear()
    assert FingerprintMemo(directory).read(path) == expected
    assert parsed == ["m.npz"]
    with open(entry_path, encoding="utf-8") as handle:
        assert handle.read() == good


@pytest.mark.parametrize("content, reason", [
    (b"PK\x03\x04 this is not a checkpoint",
     "not a readable .npz checkpoint (File is not a zip file)"),
    (None, "No such file or directory"),
], ids=["junk", "missing"])
def test_an_unreadable_checkpoint_is_refused_and_leaves_no_entry(
        tmp_path, capsys, content, reason):
    path = str(tmp_path / "bad.npz")
    if content is not None:
        with open(path, "wb") as handle:
            handle.write(content)
    store_path = str(tmp_path / "store")
    assert cli_main(["scan", path, "--store", store_path, *TINY_FLAGS]) == 1
    error = capsys.readouterr().err
    assert error.startswith("error: ") and reason in error and path in error
    assert error.count("\n") == 1
    assert _entries(sidecar_path(store_path, FINGERPRINTS_NAME)) == []


def test_no_store_writes_nothing(tmp_path, monkeypatch, capsys, parsed):
    monkeypatch.chdir(tmp_path)
    _save(tmp_path / "m.npz")
    for _ in range(2):
        assert cli_main(["scan", "m.npz", "--no-store", "--json",
                         *TINY_FLAGS]) == 0
        [record] = json.loads(capsys.readouterr().out)
        assert not record["cache_hit"]
    assert os.listdir(tmp_path) == ["m.npz"]
    # Each command's scheduler parsed the file once, in memory.
    assert parsed == ["m.npz", "m.npz"]


def test_a_storeless_scheduler_parses_once_across_batches(tmp_path, parsed):
    path = _save(tmp_path / "m.npz")
    scheduler = ScanScheduler(telemetry=False)
    assert scheduler.fingerprints.directory is None
    for seed in (0, 1):
        resolve_request(_request(path, seed=seed), scheduler.fingerprints)
    assert parsed == ["m.npz"]


@pytest.mark.parametrize("blocked", ["read_only", "not_a_directory"])
def test_an_unwritable_memo_does_not_fail_the_scan(tmp_path, monkeypatch,
                                                   caplog, parsed, blocked):
    store_path = str(tmp_path / "store")
    directory = sidecar_path(store_path, FINGERPRINTS_NAME)
    scheduler = ScanScheduler(store=open_store(store_path), telemetry=False)
    if blocked == "read_only":
        # What atomic_write raises in a directory it may not write to
        # (mode bits do not bind a superuser, so the refusal is staged).
        def refuse(path, text, encoding="utf-8"):
            raise PermissionError(errno.EACCES, "Permission denied", path)

        monkeypatch.setattr(fingerprint_module, "atomic_write", refuse)
    else:
        with open(directory, "w", encoding="utf-8") as handle:
            handle.write("in the way\n")
    path = _save(tmp_path / "m.npz")
    with caplog.at_level(logging.WARNING, logger="repro"):
        [record] = scheduler.scan([_request(path)])
        [again] = scheduler.scan([_request(path)])
    assert not record.cache_hit and again.cache_hit
    assert record.fingerprint == read_checkpoint_fingerprint(path)[1]
    assert "fingerprint not memoized" in caplog.text
    # The scheduler still parsed once: its memory holds the entry.
    assert parsed == ["m.npz"]
    assert _entries(directory) == []


def test_the_fingerprint_span_says_whether_the_file_was_parsed(tmp_path):
    path = _save(tmp_path / "m.npz")
    store_path = str(tmp_path / "store")
    sink = str(tmp_path / "spans.jsonl")
    for _ in range(2):
        ScanScheduler(store=open_store(store_path), telemetry=True,
                      span_sink=sink).scan([_request(path)])
    spans = [span for span in read_spans(sink)
             if span["name"] == "scan.fingerprint"]
    assert [span["attrs"]["memo"] for span in spans] == ["miss", "hit"]
    assert {span["attrs"]["bytes"] for span in spans} == \
        {os.path.getsize(path)}
