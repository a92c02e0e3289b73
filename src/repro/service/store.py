"""Result stores: single-file JSONL and the sharded multi-writer variant.

Two implementations share one interface (``lookup`` / ``add`` / ``records`` /
``compact`` / ``merge``):

* :class:`ResultStore` — the original append-only single-file JSONL store.
  One line per :class:`~repro.service.records.ScanRecord`, keyed by
  ``(fingerprint, detector, config_digest)`` (the record's ``key``).  The
  file is the source of truth: the store replays it on open, so it survives
  restarts and ships around as one file.  **Single-writer**: only one
  process may append at a time.

* :class:`ShardedResultStore` — a directory of shard files
  (``shard-<prefix>.jsonl``), sharded by the leading hex characters of the
  record's fingerprint.  Every append takes the shard's advisory
  :class:`~repro.service.locks.FileLock` and issues one ``O_APPEND`` write
  of the full line, so **concurrent writers** (multiple schedulers, multiple
  ``python -m repro`` invocations, the watch daemon) share one store without
  lost or torn records.  Opening reads only the manifest and replays no
  shard.  A ``lookup`` replays the one shard its key lives in on first
  touch, and again on a miss once that shard's (mtime, size) signature
  changed, so a cache hit reads one shard and other writers' appends still
  become visible.  ``records()`` / ``len()`` (and ``compact`` / ``merge``)
  replay every changed shard.

:func:`open_store` picks the right implementation from the path (existing
directory or extension-less path -> sharded; ``*.jsonl`` file -> legacy), so
callers and the CLI accept either layout with one flag.

Both stores tolerate a torn final line (a writer killed mid-append under the
legacy layout, or a truncated copy): unreadable lines are skipped with a
warning on replay.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from ..obs.logging import get_logger
from .locks import FileLock, atomic_write
from .records import RepairRecord, ScanRecord, record_from_dict

__all__ = ["ResultStore", "ShardedResultStore", "open_store",
           "stream_records", "STATS_NAME", "SPANS_NAME", "METRICS_NAME",
           "sidecar_path"]

#: Record types a store line may decode to (see ``records.record_from_dict``).
StoreRecord = Union[ScanRecord, RepairRecord]

#: Manifest file written at the root of a sharded store directory.
MANIFEST_NAME = "store.json"
#: File name of the daemon's stats endpoint inside a sharded store directory
#: (next to a legacy file it becomes ``<store>.stats.json``).
STATS_NAME = "stats.json"
#: File name of the trace-span JSONL sidecar (same placement rules).
SPANS_NAME = "spans.jsonl"
#: File name of the Prometheus metrics sidecar (same placement rules).
METRICS_NAME = "metrics.prom"
#: Current sharded-store format version (checked on open).
STORE_FORMAT = 1
#: Default number of leading fingerprint hex chars used as the shard id
#: (2 -> up to 256 shards, plenty for a uniformly distributed SHA-256 prefix).
DEFAULT_SHARD_WIDTH = 2


def sidecar_path(store_path: str, name: str) -> str:
    """Path of a store sidecar file (stats/spans/metrics) for any layout.

    Sharded stores (directories, and extension-less paths that will become
    directories) keep sidecars *inside* the store; a legacy single-file
    store gets ``<store>.<name>`` siblings.

    Args:
        store_path: The store path as given to :func:`open_store`.
        name: Sidecar file name (:data:`STATS_NAME`, :data:`SPANS_NAME`,
            :data:`METRICS_NAME`).
    """
    text = os.fspath(store_path)
    if os.path.isfile(text):
        return text + "." + name
    if (os.path.isdir(text) or text.endswith(os.sep)
            or os.path.splitext(text)[1] == ""):
        return os.path.join(text.rstrip(os.sep), name)
    return text + "." + name


def _iter_jsonl_records(path: str) -> Iterator[StoreRecord]:
    """Yield the parseable record lines of a JSONL file.

    Lines decode through :func:`repro.service.records.record_from_dict`, so
    one file may mix :class:`ScanRecord` and :class:`RepairRecord` lines.
    Unreadable lines (torn final append, foreign garbage) are counted and
    skipped with one warning per file — a store replay never fails on them.
    """
    skipped = 0
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                yield record_from_dict(json.loads(line))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                skipped += 1
    if skipped:
        get_logger(__name__).warning("%s: skipped %d unreadable line(s).",
                                     path, skipped)


def _encode(record: StoreRecord) -> bytes:
    """One canonical JSONL line (newline-terminated bytes) for ``record``.

    Transient trace spans are stripped here: they belong in the span sink
    (``spans.jsonl``), not in every store line, and stripping at the encode
    choke point keeps them out even when a caller forgot ``pop_spans()``.
    """
    payload = record.to_dict()
    payload.pop("spans", None)
    return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")


def _append_line(path: str, data: bytes) -> None:
    """Append ``data`` to ``path`` with a single ``O_APPEND`` write.

    ``O_APPEND`` makes the offset+write pair atomic in the kernel, so
    concurrent appenders on a local filesystem never interleave within a
    line; the sharded store additionally serializes writers with a per-shard
    lock, making this belt-and-braces.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        os.write(fd, data)
    finally:
        os.close(fd)


class ResultStore:
    """Persistent scan-result cache: one JSONL file, dict index in memory.

    Args:
        path: JSONL file path (created on first ``add``).

    Single-writer by design — the scheduler's parent process appends, worker
    processes only return records over the pool.  For concurrent writers use
    :class:`ShardedResultStore` (or :func:`open_store` with a directory).
    """

    def __init__(self, path: str) -> None:
        self.path = os.fspath(path)
        self._index: Dict[str, StoreRecord] = {}
        self._replay()

    # ------------------------------------------------------------------ #
    # Loading
    # ------------------------------------------------------------------ #
    def _replay(self) -> None:
        """Rebuild the in-memory index from the log (latest record per key wins)."""
        if not os.path.exists(self.path):
            return
        for record in _iter_jsonl_records(self.path):
            self._index[record.key] = record

    # ------------------------------------------------------------------ #
    # Reads
    # ------------------------------------------------------------------ #
    def lookup(self, key: str) -> Optional[StoreRecord]:
        """Latest record stored under ``key``, or ``None``."""
        return self._index.get(key)

    def __contains__(self, key: str) -> bool:
        """True when ``key`` has a stored record."""
        return key in self._index

    def __len__(self) -> int:
        """Number of distinct keys in the store."""
        return len(self._index)

    def records(self) -> List[StoreRecord]:
        """All indexed records (one per key, latest wins), insertion-ordered."""
        return list(self._index.values())

    def scan_records(self) -> List[ScanRecord]:
        """Only the :class:`ScanRecord` entries of :meth:`records`."""
        return [r for r in self.records() if isinstance(r, ScanRecord)]

    def repair_records(self) -> List[RepairRecord]:
        """Only the :class:`RepairRecord` entries of :meth:`records`."""
        return [r for r in self.records() if isinstance(r, RepairRecord)]

    def __iter__(self) -> Iterator[StoreRecord]:
        """Iterate over :meth:`records`."""
        return iter(self.records())

    # ------------------------------------------------------------------ #
    # Writes
    # ------------------------------------------------------------------ #
    def add(self, record: StoreRecord) -> None:
        """Append ``record`` to the log and index it."""
        directory = os.path.dirname(os.path.abspath(self.path))
        if directory:
            os.makedirs(directory, exist_ok=True)
        _append_line(self.path, _encode(record))
        self._index[record.key] = record

    def add_all(self, records: Iterable[StoreRecord]) -> None:
        """Append every record in ``records`` (see :meth:`add`)."""
        for record in records:
            self.add(record)

    # ------------------------------------------------------------------ #
    # Maintenance
    # ------------------------------------------------------------------ #
    def compact(self) -> Dict[str, int]:
        """Rewrite the log keeping only the latest record per key.

        Returns:
            Counters: ``lines_before``, ``records_after``, ``dropped``.
        """
        lines_before = 0
        if os.path.exists(self.path):
            for record in _iter_jsonl_records(self.path):
                self._index[record.key] = record
                lines_before += 1
        survivors = self.records()
        if os.path.exists(self.path) or survivors:
            atomic_write(self.path,
                         b"".join(_encode(r) for r in survivors).decode("utf-8"))
        return {"lines_before": lines_before, "records_after": len(survivors),
                "dropped": lines_before - len(survivors)}

    def merge(self, other: Union[str, "ResultStore", "ShardedResultStore"]
              ) -> Dict[str, int]:
        """Fold a foreign store into this one, cache-key-aware.

        Records whose key already exists here are skipped (the existing
        verdict keeps winning cache lookups — for a given key both stores
        hold the same deterministic verdict, so first-write-wins preserves
        cache-hit semantics); unknown keys are appended.

        Args:
            other: A store instance or a path (:func:`open_store` is applied).

        Returns:
            Counters: ``merged``, ``skipped``.
        """
        source = open_store(other) if isinstance(other, (str, os.PathLike)) else other
        merged = skipped = 0
        for record in source.records():
            if self.lookup(record.key) is not None:
                skipped += 1
                continue
            self.add(record)
            merged += 1
        return {"merged": merged, "skipped": skipped}


class ShardedResultStore:
    """Multi-writer result store: one JSONL shard per fingerprint prefix.

    Args:
        path: Store directory (created on demand, along with a ``store.json``
            manifest recording the shard width).
        shard_width: Leading fingerprint hex chars per shard id; read back
            from the manifest when the store already exists.
        lock_timeout: Seconds an append/compaction waits for a shard lock
            before raising :class:`~repro.service.locks.LockTimeout`.

    Layout::

        <path>/store.json            # manifest: {"format": 1, "shard_width": 2}
        <path>/shard-<prefix>.jsonl  # records whose fingerprint starts <prefix>
        <path>/locks/<shard>.lock    # advisory per-shard writer locks
        <path>/stats.json            # daemon stats endpoint (optional)

    Appends take the shard's :class:`~repro.service.locks.FileLock` and issue
    one ``O_APPEND`` write, so any number of processes can write one store.
    Opening replays nothing: :meth:`lookup` replays its key's shard on first
    touch, so a cache hit costs one shard whatever the store's size.
    :meth:`records` and ``len()`` replay every shard whose (mtime, size)
    signature changed since it was last read, and list records shard by
    shard in name order (the order :func:`stream_records` yields).
    """

    def __init__(self, path: str, shard_width: int = DEFAULT_SHARD_WIDTH,
                 lock_timeout: Optional[float] = 30.0) -> None:
        self.path = os.fspath(path)
        self.lock_timeout = lock_timeout
        #: shard file name -> {key: latest record} for every shard read or
        #: written by this handle.
        self._shards: Dict[str, Dict[str, StoreRecord]] = {}
        #: shard file name -> (mtime_ns, size) signature at last replay.
        self._shard_state: Dict[str, Tuple[int, int]] = {}
        self.shard_width = self._load_or_init_manifest(int(shard_width))

    # ------------------------------------------------------------------ #
    # Layout helpers
    # ------------------------------------------------------------------ #
    def _load_or_init_manifest(self, shard_width: int) -> int:
        """Read the manifest (creating it for a fresh store); return the width."""
        manifest_path = os.path.join(self.path, MANIFEST_NAME)
        if os.path.exists(manifest_path):
            with open(manifest_path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
            fmt = int(manifest.get("format", 0))
            if fmt != STORE_FORMAT:
                raise ValueError(f"{self.path}: unsupported store format {fmt} "
                                 f"(this build reads format {STORE_FORMAT}).")
            return int(manifest["shard_width"])
        if shard_width < 1 or shard_width > 8:
            raise ValueError(f"shard_width must be in [1, 8], got {shard_width}.")
        os.makedirs(self.path, exist_ok=True)
        with FileLock(os.path.join(self.path, "locks", "store.lock"),
                      timeout=self.lock_timeout):
            # Another writer may have raced us to the manifest.
            if os.path.exists(manifest_path):
                with open(manifest_path, "r", encoding="utf-8") as handle:
                    return int(json.load(handle)["shard_width"])
            atomic_write(manifest_path,
                         json.dumps({"format": STORE_FORMAT,
                                     "shard_width": shard_width},
                                    sort_keys=True) + "\n")
        return shard_width

    def shard_name(self, key: str) -> str:
        """Shard file name for a record ``key`` (fingerprint-prefix addressed)."""
        return f"shard-{key[:self.shard_width]}.jsonl"

    def _shard_path(self, name: str) -> str:
        return os.path.join(self.path, name)

    def _shard_lock(self, name: str) -> FileLock:
        return FileLock(os.path.join(self.path, "locks", f"{name}.lock"),
                        timeout=self.lock_timeout)

    def shard_names(self) -> List[str]:
        """Sorted names of the shard files currently on disk."""
        if not os.path.isdir(self.path):
            return []
        return sorted(entry for entry in os.listdir(self.path)
                      if entry.startswith("shard-") and entry.endswith(".jsonl"))

    @property
    def stats_path(self) -> str:
        """Path of the daemon stats endpoint inside this store."""
        return os.path.join(self.path, STATS_NAME)

    # ------------------------------------------------------------------ #
    # Loading / multi-writer visibility
    # ------------------------------------------------------------------ #
    @staticmethod
    def _signature(path: str) -> Optional[Tuple[int, int]]:
        try:
            stat = os.stat(path)
        except FileNotFoundError:
            return None
        return (stat.st_mtime_ns, stat.st_size)

    def _replay_shard(self, name: str) -> None:
        """(Re-)read one shard into the index; latest line per key wins."""
        path = self._shard_path(name)
        signature = self._signature(path)
        if signature is None or self._shard_state.get(name) == signature:
            return
        index = self._shards.setdefault(name, {})
        for record in _iter_jsonl_records(path):
            index[record.key] = record
        self._shard_state[name] = signature

    def refresh(self) -> None:
        """Replay every shard not read yet or changed since (other writers)."""
        for name in self.shard_names():
            self._replay_shard(name)

    # ------------------------------------------------------------------ #
    # Reads
    # ------------------------------------------------------------------ #
    def lookup(self, key: str) -> Optional[StoreRecord]:
        """Latest record stored under ``key``, or ``None``.

        The first lookup in a shard replays that shard; later ones answer
        from memory.  A miss re-checks the one shard that could hold the
        key, so records appended by concurrent writers become visible
        without a full reload.
        """
        name = self.shard_name(key)
        record = self._shards.get(name, {}).get(key)
        if record is not None:
            return record
        self._replay_shard(name)
        return self._shards.get(name, {}).get(key)

    def __contains__(self, key: str) -> bool:
        """True when ``key`` has a stored record (refreshing its shard)."""
        return self.lookup(key) is not None

    def __len__(self) -> int:
        """Number of distinct keys across all shards (after a refresh)."""
        self.refresh()
        return sum(len(index) for index in self._shards.values())

    def records(self) -> List[StoreRecord]:
        """All records (one per key, latest wins) after a full refresh."""
        self.refresh()
        return [record for name in sorted(self._shards)
                for record in self._shards[name].values()]

    def scan_records(self) -> List[ScanRecord]:
        """Only the :class:`ScanRecord` entries of :meth:`records`."""
        return [r for r in self.records() if isinstance(r, ScanRecord)]

    def repair_records(self) -> List[RepairRecord]:
        """Only the :class:`RepairRecord` entries of :meth:`records`."""
        return [r for r in self.records() if isinstance(r, RepairRecord)]

    def __iter__(self) -> Iterator[StoreRecord]:
        """Iterate over :meth:`records`."""
        return iter(self.records())

    # ------------------------------------------------------------------ #
    # Writes
    # ------------------------------------------------------------------ #
    def add(self, record: StoreRecord) -> None:
        """Append ``record`` to its shard (lock + single ``O_APPEND`` write).

        The shard's replay signature is deliberately *not* refreshed here:
        the post-append (mtime, size) may already include another writer's
        lines this index never replayed, and recording it would mask them
        forever.  Leaving the stale signature in place makes the next
        :meth:`refresh`/miss re-replay the shard, picking up both.
        """
        name = self.shard_name(record.key)
        path = self._shard_path(name)
        os.makedirs(self.path, exist_ok=True)
        with self._shard_lock(name):
            _append_line(path, _encode(record))
        self._shards.setdefault(name, {})[record.key] = record

    def add_all(self, records: Iterable[StoreRecord]) -> None:
        """Append every record in ``records`` (see :meth:`add`)."""
        for record in records:
            self.add(record)

    # ------------------------------------------------------------------ #
    # Maintenance
    # ------------------------------------------------------------------ #
    def compact(self) -> Dict[str, int]:
        """Drop superseded records: rewrite each shard with one line per key.

        Every shard is rewritten atomically under its writer lock (concurrent
        appends either land before the rewrite and survive deduplication, or
        wait for the lock and land after), so compaction is safe while other
        writers are live.

        Returns:
            Counters summed over shards: ``lines_before``, ``records_after``,
            ``dropped``, ``shards``.
        """
        totals = {"lines_before": 0, "records_after": 0, "dropped": 0,
                  "shards": 0}
        for name in self.shard_names():
            path = self._shard_path(name)
            with self._shard_lock(name):
                latest: Dict[str, StoreRecord] = {}
                lines = 0
                for record in _iter_jsonl_records(path):
                    latest[record.key] = record
                    lines += 1
                atomic_write(path, b"".join(_encode(r) for r in latest.values()
                                            ).decode("utf-8"))
                signature = self._signature(path)
            self._shards.setdefault(name, {}).update(latest)
            if signature is not None:
                self._shard_state[name] = signature
            totals["lines_before"] += lines
            totals["records_after"] += len(latest)
            totals["dropped"] += lines - len(latest)
            totals["shards"] += 1
        return totals

    def merge(self, other: Union[str, ResultStore, "ShardedResultStore"]
              ) -> Dict[str, int]:
        """Fold a foreign store (file or directory) in, cache-key-aware.

        Keys already present locally are skipped — a merge never replaces a
        verdict that lookups are already hitting; unknown keys are appended
        to their shards, immediately becoming cache hits here.

        Args:
            other: A store instance or a path (:func:`open_store` is applied).

        Returns:
            Counters: ``merged``, ``skipped``.
        """
        source = open_store(other) if isinstance(other, (str, os.PathLike)) else other
        merged = skipped = 0
        for record in source.records():
            if self.lookup(record.key) is not None:
                skipped += 1
                continue
            self.add(record)
            merged += 1
        return {"merged": merged, "skipped": skipped}


def open_store(path: Union[str, os.PathLike],
               **kwargs) -> Union[ResultStore, ShardedResultStore]:
    """Open the store at ``path``, picking the layout from the path itself.

    Dispatch rules, in order:

    1. an existing directory (or a path ending in the OS separator) opens as
       a :class:`ShardedResultStore`;
    2. an existing file opens as a legacy single-file :class:`ResultStore`;
    3. otherwise the extension decides: no extension -> a fresh sharded
       store directory, anything else (``scan_results.jsonl``) -> a fresh
       legacy file.

    Args:
        path: Store directory or JSONL file.
        **kwargs: Forwarded to the chosen store constructor
            (e.g. ``shard_width`` / ``lock_timeout`` for sharded stores).

    Returns:
        The opened store; both classes share the read/write interface.
    """
    text = os.fspath(path)
    if os.path.isdir(text) or text.endswith(os.sep):
        return ShardedResultStore(text.rstrip(os.sep), **kwargs)
    if os.path.isfile(text):
        return ResultStore(text)
    if os.path.splitext(text)[1] == "":
        return ShardedResultStore(text, **kwargs)
    return ResultStore(text)


def stream_records(path: Union[str, os.PathLike]) -> Iterator[StoreRecord]:
    """Stream a store's records shard by shard, without a full index.

    Yields the same records in the same order as opening the store and
    calling ``records()`` — one record per key, latest line wins — but the
    working set is bounded by the *largest shard* instead of the whole
    store: read-only consumers (``repro report``, ad-hoc scripts) never pay
    for the in-memory index ``records()`` builds.

    Per-shard deduplication is sufficient because a record's shard is
    addressed by its key's fingerprint prefix: a key never spans shards,
    and ``records()`` also lists shards in sorted name order.  A missing
    store, directory or file, yields nothing.

    Args:
        path: Store directory (sharded layout) or JSONL file (legacy).

    Yields:
        :class:`~repro.service.records.ScanRecord` /
        :class:`~repro.service.records.RepairRecord` instances.
    """
    text = os.fspath(path)
    if os.path.isdir(text) or text.endswith(os.sep):
        root = text.rstrip(os.sep)
        names = sorted(entry for entry in (os.listdir(root)
                                           if os.path.isdir(root) else ())
                       if entry.startswith("shard-")
                       and entry.endswith(".jsonl"))
        for name in names:
            latest: Dict[str, StoreRecord] = {}
            for record in _iter_jsonl_records(os.path.join(root, name)):
                latest[record.key] = record
            yield from latest.values()
        return
    if not os.path.isfile(text):
        return
    latest = {}
    for record in _iter_jsonl_records(text):
        latest[record.key] = record
    yield from latest.values()
