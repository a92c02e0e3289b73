"""The streamed checkpoint reader agrees with loading the arrays.

``read_checkpoint_fingerprint`` hashes a ``.npz`` archive's ``.npy``
members as they stream out of :mod:`zipfile`, without NumPy.  For every
archive it must return exactly what ``load_checkpoint`` followed by
``fingerprint_state_dict`` gives, or refuse exactly what that refuses:
a different digest would orphan every cached verdict without any error.
"""

import io
import json
import zipfile

import numpy as np
import pytest

from repro.nn.serialization import METADATA_KEY, load_checkpoint
from repro.service import fingerprint as fingerprint_module
from repro.service.cli import main as cli_main
from repro.service.fingerprint import (fingerprint_state_dict,
                                       read_checkpoint_fingerprint)
from repro.service.records import ScanRequest
from repro.service.scheduler import ScanScheduler

METADATA = {"model": "basic_cnn", "dataset": "cifar10", "image_size": 12}


def _state():
    """One entry of every plain dtype, plus a 0-d and an empty array."""
    rng = np.random.default_rng(3)
    state = {f"w_{dtype}": (rng.standard_normal((2, 3)) * 50).astype(dtype)
             for dtype in ("float16", "float32", "float64", "int8", "int16",
                           "int32", "int64", "uint8", "complex64")}
    state["w_bool"] = rng.standard_normal(5) > 0
    state["w_big_endian"] = rng.standard_normal(4).astype(">f4")
    state["w_scalar"] = np.array(2.5)
    state["w_empty"] = np.zeros((0,), dtype=np.float32)
    return state


def _save(path, state, metadata=None, compressed=True):
    arrays = dict(state)
    if metadata is not None:
        arrays[METADATA_KEY] = np.array(json.dumps(metadata, sort_keys=True))
    (np.savez_compressed if compressed else np.savez)(path, **arrays)
    return str(path)


def _loaded(path):
    state, metadata = load_checkpoint(path)
    return metadata, fingerprint_state_dict(state)


@pytest.fixture
def no_fallback(monkeypatch):
    """Fail the test if the reader loads arrays instead of streaming."""
    def refuse(path):
        raise AssertionError(f"{path} took the array fallback")

    monkeypatch.setattr(fingerprint_module, "load_checkpoint", refuse)


@pytest.mark.parametrize("compressed", [True, False])
@pytest.mark.parametrize("metadata", [METADATA, None])
def test_streamed_digest_matches_the_loaded_arrays(tmp_path, no_fallback,
                                                   compressed, metadata):
    path = _save(tmp_path / "c.npz", _state(), metadata, compressed)
    expected = _loaded(path)
    assert expected[0] == (metadata or {})
    assert read_checkpoint_fingerprint(path) == expected


@pytest.mark.parametrize("name", sorted(_state()))
def test_each_dtype_streams_to_the_array_digest(tmp_path, no_fallback, name):
    path = _save(tmp_path / "c.npz", {name: _state()[name]})
    state = {name: _state()[name]}
    assert read_checkpoint_fingerprint(path) == \
        ({}, fingerprint_state_dict(state))


@pytest.mark.parametrize("version", [(1, 0), (2, 0), (3, 0)])
def test_every_npy_format_version_streams(tmp_path, no_fallback, version):
    path = str(tmp_path / "c.npz")
    with zipfile.ZipFile(path, "w") as archive:
        for name, array in _state().items():
            buffer = io.BytesIO()
            np.lib.format.write_array(buffer, array, version=version)
            archive.writestr(name + ".npy", buffer.getvalue())
    assert read_checkpoint_fingerprint(path) == _loaded(path)


def test_dtype_names_match_numpy():
    for code, name in fingerprint_module._DTYPE_NAMES.items():
        order = "|" if code[1:] == "1" else "<"
        assert str(np.dtype(order + code)) == name
        assert fingerprint_module._dtype_name(order + code) == name
        if order == "<":
            assert fingerprint_module._dtype_name(">" + code) == \
                str(np.dtype(">" + code))


def _fallback_cases(tmp_path):
    """Archives the stream cannot hash exactly, by reason."""
    fortran = _save(tmp_path / "fortran.npz",
                    {"w": np.asfortranarray(np.arange(6.0).reshape(2, 3))},
                    METADATA)
    foreign = _save(tmp_path / "foreign.npz", _state(), METADATA)
    with zipfile.ZipFile(foreign, "a") as archive:
        archive.writestr("notes.txt", b"not an array")
    text = _save(tmp_path / "text.npz",
                 {"w": np.arange(3.0), "names": np.array(["a", "bc"])},
                 METADATA)
    return {"fortran": fortran, "foreign": foreign, "text": text}


@pytest.mark.parametrize("case", ["fortran", "foreign", "text"])
def test_fallback_archives_match_the_loaded_arrays(tmp_path, monkeypatch,
                                                   case):
    path = _fallback_cases(tmp_path)[case]
    calls = []
    original = fingerprint_module.load_checkpoint

    def counting(target):
        calls.append(target)
        return original(target)

    monkeypatch.setattr(fingerprint_module, "load_checkpoint", counting)
    assert read_checkpoint_fingerprint(path) == _loaded(path)
    assert calls == [path]


def _rewrite(path, name, data):
    """Store ``data`` as member ``name`` of a fresh uncompressed archive."""
    with zipfile.ZipFile(path, "w") as archive:
        archive.writestr(name, data)
    return str(path)


def _refused_cases(tmp_path):
    """Checkpoints today's loader refuses, by reason."""
    not_zip = tmp_path / "not_zip.npz"
    not_zip.write_bytes(b"PK\x03\x04 this is not a checkpoint")
    crc = tmp_path / "crc.npz"
    _save(crc, {"w": np.arange(64.0)}, METADATA, compressed=False)
    data = bytearray(crc.read_bytes())
    data[data.index(b"\x93NUMPY") + 200] ^= 0xFF  # a data byte of w.npy
    crc.write_bytes(bytes(data))
    with zipfile.ZipFile(_save(tmp_path / "full.npz",
                               {"w": np.arange(64.0)})) as archive:
        member = archive.read("w.npy")
    short = _rewrite(tmp_path / "short.npz", "w.npy", member[:-8])
    objects = tmp_path / "objects.npz"
    np.savez(objects, w=np.array([{"a": 1}, None], dtype=object))
    header = ("{'descr': '<f8', 'fortran_order': False, 'shape': (2,), }"
              + " " * 12_000 + "\n").encode("latin-1")
    big = _rewrite(tmp_path / "big.npz", "w.npy",
                   b"\x93NUMPY\x02\x00" + len(header).to_bytes(4, "little")
                   + header + bytes(16))
    return {"not_zip": str(not_zip), "crc": str(crc), "short": short,
            "objects": str(objects), "big_header": big}


@pytest.mark.parametrize("case", ["not_zip", "crc", "short", "objects",
                                  "big_header"])
def test_unreadable_checkpoints_are_refused_naming_the_path(tmp_path, case):
    path = _refused_cases(tmp_path)[case]
    with pytest.raises(Exception):
        _loaded(path)
    with pytest.raises(ValueError) as refused:
        read_checkpoint_fingerprint(path)
    assert str(refused.value).startswith(
        f"{path}: not a readable .npz checkpoint (")


@pytest.mark.parametrize("case", ["not_zip", "crc", "short", "objects",
                                  "big_header"])
def test_unreadable_checkpoints_fail_before_dispatch(tmp_path, monkeypatch,
                                                     case):
    path = _refused_cases(tmp_path)[case]
    scheduler = ScanScheduler(telemetry=False)

    def dispatch(items):
        raise AssertionError("an unreadable checkpoint was dispatched")

    monkeypatch.setattr(scheduler, "_execute_scans", dispatch)
    with pytest.raises(ValueError, match="not a readable .npz checkpoint"):
        scheduler.scan([ScanRequest(checkpoint=path)])
    assert scheduler.metrics.failures == 1


def test_corrupt_checkpoint_prints_one_error_line(tmp_path, capsys):
    bad = tmp_path / "bad.npz"
    bad.write_bytes(b"PK\x03\x04 this is not a checkpoint")
    for argv in (["scan", str(bad)], ["grid", str(bad)]):
        assert cli_main(argv + ["--no-store"]) == 1
        captured = capsys.readouterr()
        assert captured.err == (f"error: {bad}: not a readable .npz "
                                "checkpoint (File is not a zip file)\n")
        assert captured.out == ""
