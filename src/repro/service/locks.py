"""Advisory file locks and atomic file replacement for multi-writer stores.

The sharded result store (:mod:`repro.service.store`) serializes writers per
shard with :class:`FileLock`, a POSIX ``flock``-based advisory lock.  Kernel
advisory locks are released automatically when the holding process exits (or
crashes), so a dead writer never wedges the store — "lock recovery" is a
no-op by construction (see ``docs/ops.md``).  On platforms without ``fcntl``
the lock degrades to a no-op and writers rely on single-``write`` ``O_APPEND``
appends alone, which local filesystems keep line-atomic for JSONL-sized
records.

:func:`atomic_write` is the companion primitive for whole-file rewrites
(compaction, manifests, the daemon's stats endpoint): write to a temp file in
the target directory, flush + fsync, then ``os.replace`` so readers only ever
observe the old or the new content, never a torn mix.
"""

from __future__ import annotations

import os
import tempfile
import time
from types import TracebackType
from typing import Optional, Type

try:  # POSIX only; the store degrades gracefully without it.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

__all__ = ["FileLock", "LockTimeout", "atomic_write"]


class LockTimeout(TimeoutError):
    """Raised when a :class:`FileLock` cannot be acquired within its timeout."""


class FileLock:
    """Advisory exclusive lock on a lock file (``flock``-based, re-entrant-free).

    Args:
        path: Lock-file path; created (empty) on first acquisition.  The lock
            protects whatever resource its holders agree it protects — the
            sharded store uses one lock file per shard.
        timeout: Seconds to wait for the lock before raising
            :class:`LockTimeout`.  ``None`` blocks forever.
        poll_interval: Sleep between non-blocking acquisition attempts.

    Returns:
        A context manager: ``with FileLock(path): ...`` holds the lock for
        the duration of the block.

    The lock is *advisory*: only cooperating processes that take the same
    lock are serialized.  It is held by an open file descriptor, so the
    kernel releases it when the holder exits for any reason.
    """

    def __init__(self, path: str, timeout: Optional[float] = 30.0,
                 poll_interval: float = 0.02) -> None:
        self.path = os.fspath(path)
        self.timeout = timeout
        self.poll_interval = float(poll_interval)
        self._fd: Optional[int] = None

    @property
    def held(self) -> bool:
        """True while this instance holds the lock."""
        return self._fd is not None

    def acquire(self) -> None:
        """Take the lock, waiting up to ``timeout`` seconds.

        Raises:
            LockTimeout: the lock stayed held by another process past the
                timeout.
        """
        if self._fd is not None:
            raise RuntimeError(f"{self.path}: lock already held by this object.")
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        fd = os.open(self.path, os.O_CREAT | os.O_RDWR, 0o644)
        if fcntl is None:  # pragma: no cover - non-POSIX platforms
            self._fd = fd
            return
        deadline = (time.monotonic() + self.timeout
                    if self.timeout is not None else None)
        while True:
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                self._fd = fd
                return
            except OSError:
                if deadline is not None and time.monotonic() >= deadline:
                    os.close(fd)
                    raise LockTimeout(
                        f"{self.path}: could not acquire lock within "
                        f"{self.timeout:.1f}s.") from None
                time.sleep(self.poll_interval)

    def release(self) -> None:
        """Drop the lock (no-op when not held)."""
        if self._fd is None:
            return
        try:
            if fcntl is not None:
                fcntl.flock(self._fd, fcntl.LOCK_UN)
        finally:
            os.close(self._fd)
            self._fd = None

    def __enter__(self) -> "FileLock":
        self.acquire()
        return self

    def __exit__(self, exc_type: Optional[Type[BaseException]],
                 exc: Optional[BaseException],
                 tb: Optional[TracebackType]) -> None:
        self.release()


def atomic_write(path: str, text, encoding: str = "utf-8") -> None:
    """Replace ``path`` with ``text`` atomically (temp file + ``os.replace``).

    Args:
        path: Destination file; parent directories are created as needed.
        text: Full new content — ``str`` (written with ``encoding``) or
            ``bytes`` (written verbatim; used for binary artifacts like the
            repaired ``.npz`` checkpoints).
        encoding: Text encoding when ``text`` is a string.

    Readers never observe a partially-written file: the temp file lives in
    the destination directory (same filesystem), is fsynced, and is swapped
    in with a single atomic rename.
    """
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(dir=directory,
                                    prefix=os.path.basename(path) + ".tmp.")
    binary = isinstance(text, (bytes, bytearray))
    try:
        with os.fdopen(fd, "wb" if binary else "w",
                       encoding=None if binary else encoding) as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:  # pragma: no cover - best-effort cleanup
            pass
        raise
