"""Content-addressed fingerprints for checkpoints and detector configs.

A model fingerprint is a SHA-256 over its state dict, folded entry by entry
in sorted-key order.  Each entry contributes, in this order: its name
(UTF-8), the dtype name NumPy prints (``float32``, ``bool``; ``>f4`` for a
non-native byte order), ``str`` of its shape tuple (``(1,)`` for a 0-d
entry, which ``numpy.ascontiguousarray`` makes 1-d), and its raw C-order
bytes.  Two models with identical weights therefore fingerprint
identically in any process on any machine, while a single perturbed weight
changes the digest — exactly the property the result store needs to treat
"scan this model again" as a cache hit.  Checkpoint metadata
(:data:`repro.nn.serialization.METADATA_KEY`) is *not* part of the state
dict and never affects the fingerprint.

That byte stream comes from one of two paths:

* **arrays** — :func:`fingerprint_state_dict` hashes a loaded state dict
  (misses and live models);
* **archive** — :func:`read_checkpoint_fingerprint` streams each ``.npy``
  member of a saved ``.npz`` through :mod:`zipfile` into the digest: the
  member's header gives the dtype and shape, and its data bytes are the
  array's C-order bytes, so no array is built and NumPy is never imported.
  An archive this cannot hash exactly goes through
  :func:`~repro.nn.serialization.load_checkpoint` and the array path
  instead, so both paths always agree: a member not named ``*.npy`` (or one
  NumPy would read under another name), a member without a format 1.0–3.0
  ``.npy`` header, a header over NumPy's 10,000-byte limit or not a plain
  literal, a dtype outside the plain numeric and ``bool`` kinds (object,
  string, datetime, structured, void), Fortran order, a data length other
  than the shape's element count times the item size, metadata that is not
  a 0-d ``<U`` text, or a member :mod:`zipfile` fails to read.

Detector configuration is digested separately (:func:`digest_config`) so the
cache key distinguishes, say, a 40-iteration USB scan from a 500-iteration
one: a scan result is addressed by ``(fingerprint, detector, config_digest)``
via :func:`scan_key`.
"""

from __future__ import annotations

import ast
import dataclasses
import hashlib
import json
import sys
import zipfile
import zlib
from typing import TYPE_CHECKING, Any, BinaryIO, Dict, Optional, Tuple

from ..nn.serialization import METADATA_KEY, load_checkpoint

if TYPE_CHECKING:
    import numpy as np

    from ..nn.layers import Module

__all__ = [
    "fingerprint_state_dict",
    "fingerprint_model",
    "fingerprint_checkpoint",
    "read_checkpoint_fingerprint",
    "digest_config",
    "scan_key",
]

#: Length of the (hex) detector-config digest kept in scan keys.  16 hex
#: chars = 64 bits, far beyond collision risk for the handful of configs a
#: deployment ever uses, and short enough to keep keys readable.
CONFIG_DIGEST_CHARS = 16

#: What ``str(numpy.dtype(descr))`` prints for a native-order descr, by
#: its type code; a non-native multi-byte descr prints as itself.
_DTYPE_NAMES = {
    "b1": "bool", "i1": "int8", "u1": "uint8",
    "i2": "int16", "u2": "uint16", "i4": "int32", "u4": "uint32",
    "i8": "int64", "u8": "uint64",
    "f2": "float16", "f4": "float32", "f8": "float64",
    "c8": "complex64", "c16": "complex128",
}
_NATIVE_ORDER = "<" if sys.byteorder == "little" else ">"
#: The ``.npy`` magic, and the header-length field size of each version
#: NumPy reads (1.0, 2.0, 3.0).
_NPY_MAGIC = b"\x93NUMPY"
_NPY_LENGTH_BYTES = {b"\x01\x00": 2, b"\x02\x00": 4, b"\x03\x00": 4}
#: NumPy's ``max_header_size`` when loading without pickles.
_MAX_HEADER_BYTES = 10_000
_ZIP_PREFIXES = (b"PK\x03\x04", b"PK\x05\x06")
_CHUNK_BYTES = 1 << 20
#: How an unreadable archive fails, in :mod:`zipfile` or in NumPy.
_READ_ERRORS = (zipfile.BadZipFile, zlib.error, EOFError, ValueError)


def fingerprint_state_dict(state: Dict[str, np.ndarray]) -> str:
    """SHA-256 hex digest of a state dict's names, dtypes, shapes, and bytes."""
    import numpy as np

    digest = hashlib.sha256()
    for key in sorted(state):
        array = np.ascontiguousarray(state[key])
        digest.update(key.encode("utf-8"))
        digest.update(str(array.dtype).encode("ascii"))
        digest.update(str(tuple(array.shape)).encode("ascii"))
        digest.update(array.tobytes())
    return digest.hexdigest()


def fingerprint_model(model: Module) -> str:
    """Fingerprint a live module via its ``state_dict()``."""
    return fingerprint_state_dict(model.state_dict())


def fingerprint_checkpoint(path: str) -> str:
    """Fingerprint a saved ``.npz`` checkpoint (metadata entry excluded)."""
    return read_checkpoint_fingerprint(path)[1]


def read_checkpoint_fingerprint(path: str) -> Tuple[Dict[str, Any], str]:
    """``(metadata, fingerprint)`` of a saved ``.npz`` checkpoint, in one pass.

    Streams the archive's members into the digest without building arrays
    (see the module docstring), falling back to
    :func:`~repro.nn.serialization.load_checkpoint` and
    :func:`fingerprint_state_dict` for an archive that cannot be hashed
    exactly that way.  Either path gives the same metadata and fingerprint
    as loading the checkpoint and hashing its state dict.

    Raises:
        OSError: ``path`` cannot be opened.
        ValueError: ``path`` is not a readable checkpoint: not a zip
            archive, a damaged or truncated member, or a member NumPy
            refuses to load (object arrays, oversized headers).  The
            message names ``path``.
    """
    try:
        streamed = _stream_checkpoint(path)
        if streamed is None:
            state, metadata = load_checkpoint(path)
            streamed = metadata, fingerprint_state_dict(state)
    except _READ_ERRORS as error:
        raise ValueError(f"{path}: not a readable .npz checkpoint "
                         f"({error})") from error
    return streamed


def _stream_checkpoint(path: str) -> Optional[Tuple[Dict[str, Any], str]]:
    """The streamed ``(metadata, fingerprint)``, or ``None`` to load instead.

    A member :mod:`zipfile` fails to read returns ``None`` too, so the
    loader decides whether the archive is refused, and its error is the one
    reported.
    """
    with open(path, "rb") as handle:
        # numpy.load opens only these as archives; it refuses anything else.
        if not handle.read(4).startswith(_ZIP_PREFIXES):
            raise zipfile.BadZipFile("File is not a zip file")
        handle.seek(0)
        with zipfile.ZipFile(handle) as archive:
            try:
                return _stream_members(archive)
            except (zipfile.BadZipFile, zlib.error, EOFError):
                return None


def _stream_members(archive: zipfile.ZipFile
                    ) -> Optional[Tuple[Dict[str, Any], str]]:
    """Hash every ``.npy`` member in sorted key order (``None``: cannot)."""
    names = set(archive.namelist())
    keys = sorted(name[:-len(".npy")] for name in names)
    # numpy.load reads key ``k`` from a member named ``k`` when one exists.
    if any(not name.endswith(".npy") for name in names) or \
            any(key in names for key in keys):
        return None
    metadata: Dict[str, Any] = {}
    digest = hashlib.sha256()
    for key in keys:
        with archive.open(key + ".npy") as member:
            header = _read_npy_header(member)
            if header is None:
                return None
            if key == METADATA_KEY:
                text = _read_text(member, *header)
                if text is None:
                    return None
                metadata = json.loads(text)
            elif not _hash_member(digest, key, member, *header):
                return None
    return metadata, digest.hexdigest()


def _read_npy_header(member: BinaryIO
                     ) -> Optional[Tuple[str, Tuple[int, ...]]]:
    """``(descr, shape)`` of a C-order ``.npy`` header, as NumPy parses it.

    ``None`` for anything NumPy would read differently or refuse.
    """
    magic = member.read(len(_NPY_MAGIC) + 2)
    length_bytes = _NPY_LENGTH_BYTES.get(magic[len(_NPY_MAGIC):])
    if not magic.startswith(_NPY_MAGIC) or length_bytes is None:
        return None
    length = int.from_bytes(member.read(length_bytes), "little")
    if length > _MAX_HEADER_BYTES:
        return None
    raw = member.read(length)
    encoding = "utf-8" if magic.endswith(b"\x03\x00") else "latin-1"
    try:
        header = ast.literal_eval(raw.decode(encoding))
    except (SyntaxError, ValueError, TypeError, MemoryError, RecursionError):
        return None
    if len(raw) != length or not isinstance(header, dict) or \
            set(header) != {"descr", "fortran_order", "shape"}:
        return None
    descr, shape = header["descr"], header["shape"]
    if header["fortran_order"] is not False or not isinstance(descr, str) \
            or not isinstance(shape, tuple) \
            or not all(type(size) is int and size >= 0 for size in shape):
        return None
    return descr, shape


def _hash_member(digest: Any, key: str, member: BinaryIO, descr: str,
                 shape: Tuple[int, ...]) -> bool:
    """Feed one array member to ``digest``; False if it cannot be exact.

    Name, dtype name and shape go first, then the data in chunks; the data
    must be exactly the shape's element count times the item size.
    """
    name = _dtype_name(descr)
    if name is None:
        return False
    digest.update(key.encode("utf-8"))
    digest.update(name.encode("ascii"))
    # numpy.ascontiguousarray makes a 0-d array 1-d.
    digest.update(str(shape or (1,)).encode("ascii"))
    expected = int(descr[2:])
    for size in shape:
        expected *= size
    length = 0
    for chunk in iter(lambda: member.read(_CHUNK_BYTES), b""):
        digest.update(chunk)
        length += len(chunk)
    return length == expected


def _dtype_name(descr: str) -> Optional[str]:
    """What ``str(numpy.dtype(descr))`` prints for a plain numeric descr."""
    order, code = descr[:1], descr[1:]
    name = _DTYPE_NAMES.get(code)
    if name is None:
        return None
    if code[1:] == "1":  # single-byte kinds carry no byte order
        return name if order == "|" else None
    if order == _NATIVE_ORDER:
        return name
    return descr if order in ("<", ">") else None


def _read_text(member: BinaryIO, descr: str,
               shape: Tuple[int, ...]) -> Optional[str]:
    """The text of a 0-d native-order ``<U`` member, as ``str()`` gives it."""
    chars = descr[2:]
    if shape or descr[:2] != _NATIVE_ORDER + "U" or not chars.isdigit():
        return None
    raw = member.read()
    if len(raw) != 4 * int(chars):
        return None
    try:
        text = raw.decode("utf-32-le" if _NATIVE_ORDER == "<" else "utf-32-be")
    except UnicodeDecodeError:
        return None
    return text.rstrip("\x00")


def _canonical(value: Any) -> Any:
    """Reduce configs to a deterministic JSON-able structure.

    NumPy scalars and arrays are reduced only when NumPy is loaded: no such
    value can exist before, so a config digest never imports it.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {f.name: _canonical(getattr(value, f.name))
                  for f in dataclasses.fields(value)}
        return {"__type__": type(value).__name__, **fields}
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items(),
                                                         key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    numpy = sys.modules.get("numpy")
    if numpy is not None:
        if isinstance(value, (numpy.integer,)):
            return int(value)
        if isinstance(value, (numpy.floating,)):
            return float(value)
        if isinstance(value, numpy.ndarray):
            return [_canonical(v) for v in value.tolist()]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


def digest_config(config: Any) -> str:
    """Short stable digest of any (nested) dataclass / dict / scalar config."""
    canonical = json.dumps(_canonical(config), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:CONFIG_DIGEST_CHARS]


def scan_key(fingerprint: str, detector: str, config_digest: str) -> str:
    """Result-store key for one (model, detector, config) scan."""
    return f"{fingerprint}:{detector.lower()}:{config_digest}"
