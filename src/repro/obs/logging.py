"""Minimal structured logging used across the package (stdlib only).

The default level is ``INFO``; override per process with the
``REPRO_LOG_LEVEL`` environment variable (``debug``/``info``/``warning``/
``error``/``critical``) or at runtime via :func:`set_log_level` (the CLI's
``--log-level`` flag).

The stdlib :mod:`logging` package loads on the first call here, not on
import, so a module may import :func:`get_logger` for free and call it
where it logs: a cache hit, which logs nothing, never loads it.
"""

from __future__ import annotations

import os
import sys
import time
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:
    import logging

__all__ = ["get_logger", "set_log_level", "timed", "LOG_LEVEL_ENV"]

#: Environment variable naming the default log level for new processes.
LOG_LEVEL_ENV = "REPRO_LOG_LEVEL"

_FORMAT = "%(asctime)s %(levelname)s %(name)s: %(message)s"
_configured = False


def _resolve_level(level: str | int | None) -> int:
    """Map a level name/number (or None -> env var -> INFO) to an int."""
    import logging

    if level is None:
        level = os.environ.get(LOG_LEVEL_ENV, "").strip() or "INFO"
    if isinstance(level, int):
        return level
    resolved = logging.getLevelName(str(level).upper())
    if not isinstance(resolved, int):
        raise ValueError(f"unknown log level {level!r} (use debug/info/"
                         f"warning/error/critical)")
    return resolved


def get_logger(name: str = "repro") -> logging.Logger:
    """Return a logger configured to emit to stderr once per process.

    The root ``repro`` logger's level comes from ``REPRO_LOG_LEVEL`` when
    set (falling back to ``INFO``); an invalid value falls back to ``INFO``
    rather than breaking the caller.
    """
    global _configured
    import logging

    if not _configured:
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(logging.Formatter(_FORMAT))
        root = logging.getLogger("repro")
        root.addHandler(handler)
        try:
            root.setLevel(_resolve_level(None))
        except ValueError:
            root.setLevel(logging.INFO)
        _configured = True
    return logging.getLogger(name)


def set_log_level(level: str | int) -> int:
    """Set the level of the root ``repro`` logger (configuring it if needed).

    Args:
        level: A name (``"debug"``, case-insensitive) or numeric level.

    Returns:
        The numeric level that was applied.

    Raises:
        ValueError: When ``level`` is not a recognized name.
    """
    resolved = _resolve_level(level)
    get_logger().setLevel(resolved)
    return resolved


@contextmanager
def timed(label: str, logger: logging.Logger | None = None) -> Iterator[dict]:
    """Context manager measuring wall-clock time of a block.

    Yields a dict whose ``seconds`` key is filled when the block exits; also
    logs the duration if a logger is supplied.
    """
    record: dict = {"label": label, "seconds": None}
    start = time.perf_counter()
    try:
        yield record
    finally:
        record["seconds"] = time.perf_counter() - start
        if logger is not None:
            logger.info("%s took %.3fs", label, record["seconds"])
