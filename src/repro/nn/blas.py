"""Size the OpenBLAS thread pool to one executor's share of the host.

NumPy's OpenBLAS starts with one thread per core (or ``OPENBLAS_NUM_THREADS``
of them).  Trigger inversion is a long run of small GEMMs, so when several
executors share a host — ``pool`` children, ``repro worker`` processes —
and each keeps that full pool, their helper threads spin between GEMMs on
too few cores and burn CPU the executors need.  :func:`share_cores` shrinks
the calling process's pool to its share of the cores instead.  The pool
size the process started with stays a ceiling, so an operator's
``OPENBLAS_NUM_THREADS`` is never raised.

The library is the OpenBLAS already mapped into the process (found in
``/proc/self/maps``), bound under either symbol spelling: the reference
build's ``openblas_set_num_threads`` or the NumPy wheels'
``scipy_openblas_set_num_threads64_``.  Where no OpenBLAS is loaded (MKL,
Accelerate, a platform without ``/proc``) both calls do nothing.
"""

from __future__ import annotations

import ctypes
import functools
import os
from typing import Any, List, NamedTuple, Optional

__all__ = ["share_cores", "threads"]

#: (setter, getter) symbol pairs: the reference build, then NumPy's wheels.
_SYMBOLS = (
    ("openblas_set_num_threads", "openblas_get_num_threads"),
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
)


class _OpenBlas(NamedTuple):
    """The bound thread setter/getter and the pool size at first use."""

    set_threads: Any
    get_threads: Any
    start: int


def _loaded_openblas_paths() -> List[str]:
    """Paths of the mapped shared objects whose file name says OpenBLAS."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            fields = [line.split(maxsplit=5) for line in maps]
    except OSError:
        return []
    return sorted({entry[5].strip() for entry in fields if len(entry) == 6
                   and "openblas" in os.path.basename(entry[5]).lower()})


@functools.lru_cache(maxsize=None)
def _openblas() -> Optional[_OpenBlas]:
    """Bind the process's OpenBLAS once (``None`` when none is loaded)."""
    for path in _loaded_openblas_paths():
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for setter, getter in _SYMBOLS:
            if hasattr(library, setter) and hasattr(library, getter):
                set_threads = getattr(library, setter)
                set_threads.argtypes = [ctypes.c_int]
                set_threads.restype = None
                get_threads = getattr(library, getter)
                get_threads.argtypes = []
                get_threads.restype = ctypes.c_int
                return _OpenBlas(set_threads, get_threads, int(get_threads()))
    return None


def share_cores(executors: int) -> Optional[int]:
    """Size this process's OpenBLAS pool to its share of the host's cores.

    Args:
        executors: Processes running jobs side by side on this host, the
            caller included.

    Returns:
        The pool size now in effect, ``max(1, min(start, cpus //
        executors))`` — ``cpus`` being the cores this process may run on
        and ``start`` the pool size it began with — or ``None`` when no
        OpenBLAS is loaded.
    """
    blas = _openblas()
    if blas is None:
        return None
    cpus = len(os.sched_getaffinity(0))
    size = max(1, min(blas.start, cpus // max(1, int(executors))))
    blas.set_threads(size)
    return size


def threads() -> Optional[int]:
    """The OpenBLAS pool size in effect now (``None`` without OpenBLAS)."""
    blas = _openblas()
    return None if blas is None else int(blas.get_threads())
