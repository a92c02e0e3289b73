#!/usr/bin/env python
"""Import every ``repro`` module on its own, each in a fresh interpreter.

The packages resolve their public names lazily (:mod:`repro._lazy`) and
modules import parts of one another inside functions, so an import cycle
or a module that only works after another one was imported shows up only
when that module is the first thing a process imports.  This check makes
each module that first thing, once, and fails on any error.

Then it imports :mod:`repro.service.cli` alone under ``-X importtime``:
a cache hit runs only what the CLI imports, and must not load NumPy.  If
NumPy appears, the check names the ``repro`` module whose import loaded
it.

Run with ``make import-check`` or::

    PYTHONPATH=src python tools/import_check.py

Prints one line per failing module with the last line of its error, then
a summary; exits 1 if any module failed or the CLI loads NumPy.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from typing import List, Optional, Tuple

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_ROOT, "src")
#: The module whose import must not load NumPy.
_CLI = "repro.service.cli"
#: One ``-X importtime`` row: its indentation is the import nesting depth.
_IMPORT_ROW = re.compile(r"^import time:\s+\d+ \|\s+\d+ \|( +)(\S+)")


def module_names() -> List[str]:
    """Every module under ``src/repro``, packages as their package name."""
    names = []
    for directory, _, files in os.walk(os.path.join(_SRC, "repro")):
        for filename in files:
            if not filename.endswith(".py"):
                continue
            parts = os.path.relpath(os.path.join(directory, filename),
                                    _SRC)[:-len(".py")].split(os.sep)
            if parts[-1] == "__init__":
                parts.pop()
            names.append(".".join(parts))
    return sorted(names)


def _import_fresh(name: str, *flags: str) -> subprocess.CompletedProcess:
    """``python [flags] -c "import <name>"`` with ``src`` on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [_SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, *flags, "-c", f"import {name}"],
                          env=env, capture_output=True, text=True)


def import_alone(name: str) -> Tuple[str, Optional[str]]:
    """Import ``name`` in a fresh interpreter: ``(name, error or None)``."""
    done = _import_fresh(name)
    if done.returncode == 0:
        return name, None
    lines = done.stderr.strip().splitlines()
    return name, lines[-1] if lines else f"exit {done.returncode}"


def numpy_importer() -> Optional[str]:
    """The ``repro`` module whose import loads NumPy when the CLI loads.

    ``None`` when importing :data:`_CLI` alone leaves NumPy out.  ``-X
    importtime`` prints each module after the modules it imported, one
    indentation step deeper, so the importer is the first later row that
    sits shallower than NumPy's and names a ``repro`` module.  A module a
    lazy export loads (``importlib.import_module``) prints no row, so the
    importer named then is the module that read the lazy name.
    """
    rows = [(len(match.group(1)), match.group(2))
            for match in map(_IMPORT_ROW.match,
                             _import_fresh(_CLI, "-X", "importtime")
                             .stderr.splitlines()) if match]
    for index, (depth, module) in enumerate(rows):
        if module != "numpy":
            continue
        for outer_depth, outer in rows[index + 1:]:
            if outer_depth < depth:
                depth = outer_depth
                if outer.startswith("repro"):
                    return outer
        return _CLI
    return None


def main() -> int:
    """Check every module, then the CLI's imports; exit 1 on any failure."""
    names = module_names()
    jobs = max(1, min(2, os.cpu_count() or 1))
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        failures = [(name, error) for name, error in pool.map(import_alone,
                                                              names)
                    if error is not None]
    for name, error in failures:
        print(f"{name}: {error}", file=sys.stderr)
    print(f"{len(names) - len(failures)} of {len(names)} module(s) import "
          "alone.")
    importer = numpy_importer()
    if importer is not None:
        print(f"{_CLI}: importing it loads numpy, through {importer}",
              file=sys.stderr)
    else:
        print(f"{_CLI} imports without numpy.")
    return 1 if failures or importer is not None else 0


if __name__ == "__main__":
    raise SystemExit(main())
