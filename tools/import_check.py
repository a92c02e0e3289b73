#!/usr/bin/env python
"""Import every ``repro`` module on its own, each in a fresh interpreter.

The packages resolve their public names lazily (:mod:`repro._lazy`) and
modules import parts of one another inside functions, so an import cycle
or a module that only works after another one was imported shows up only
when that module is the first thing a process imports.  This check makes
each module that first thing, once, and fails on any error.

Then it imports :mod:`repro.service.cli` alone under ``-X importtime``:
a cache hit runs only what the CLI imports, and must load none of
:data:`HIT_UNUSED` — not NumPy, nor the stdlib and ``repro`` modules that
only a miss or another command runs.  For each one that appears, the check
names the ``repro`` module whose import loaded it.

Run with ``make import-check`` or::

    PYTHONPATH=src python tools/import_check.py

Prints one line per failing module with the last line of its error, then
a summary; exits 1 if any module failed or the CLI loads a module of
:data:`HIT_UNUSED`.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Tuple

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_ROOT, "src")
#: The module a cache hit runs within.
_CLI = "repro.service.cli"
#: Modules importing :data:`_CLI` must not load: NumPy (a hit builds no
#: array), the stdlib loggers, ids, FFI and clocks only a miss or a server
#: runs, the metrics registry and span renderer (``report``, ``metrics``,
#: ``trace``) and the router (``--strategy``).
#: ``tests/test_read_cost.py`` checks the same list after each cached
#: command.
HIT_UNUSED = ("numpy", "logging", "uuid", "platform", "ctypes", "datetime",
              "repro.obs.metrics", "repro.obs.render",
              "repro.service.routing")
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


def unused_importers() -> Dict[str, str]:
    """Each :data:`HIT_UNUSED` module the CLI loads -> the ``repro`` importer.

    Empty when importing :data:`_CLI` alone loads none of them.  ``-X
    importtime`` prints each module after the modules it imported, one
    indentation step deeper, so the importer is the first later row that
    sits shallower than the module's and names a ``repro`` module.  A
    module a lazy export loads (``importlib.import_module``) prints no
    row, so the importer named then is the module that read the lazy name.
    """
    rows = [(len(match.group(1)), match.group(2))
            for match in map(_IMPORT_ROW.match,
                             _import_fresh(_CLI, "-X", "importtime")
                             .stderr.splitlines()) if match]
    found: Dict[str, str] = {}
    for index, (depth, module) in enumerate(rows):
        if module not in HIT_UNUSED:
            continue
        found[module] = _CLI
        for outer_depth, outer in rows[index + 1:]:
            if outer_depth < depth:
                depth = outer_depth
                if outer.startswith("repro"):
                    found[module] = outer
                    break
    return found


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
    importers = unused_importers()
    for module, importer in importers.items():
        print(f"{_CLI}: importing it loads {module}, through {importer}",
              file=sys.stderr)
    if not importers:
        print(f"{_CLI} imports without {', '.join(HIT_UNUSED)}.")
    return 1 if failures or importers else 0


if __name__ == "__main__":
    raise SystemExit(main())
