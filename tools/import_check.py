#!/usr/bin/env python
"""Import every ``repro`` module on its own, each in a fresh interpreter.

The packages resolve their public names lazily (:mod:`repro._lazy`) and
modules import parts of one another inside functions, so an import cycle
or a module that only works after another one was imported shows up only
when that module is the first thing a process imports.  This check makes
each module that first thing, once, and fails on any error.

Run with ``make import-check`` or::

    PYTHONPATH=src python tools/import_check.py

Prints one line per failing module with the last line of its error, then
a summary; exits 1 if any module failed.
"""

from __future__ import annotations

import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from typing import List, Optional, Tuple

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_ROOT, "src")


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


def import_alone(name: str) -> Tuple[str, Optional[str]]:
    """Import ``name`` in a fresh interpreter: ``(name, error or None)``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [_SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-c", f"import {name}"], env=env,
                          capture_output=True, text=True)
    if done.returncode == 0:
        return name, None
    lines = done.stderr.strip().splitlines()
    return name, lines[-1] if lines else f"exit {done.returncode}"


def main() -> int:
    """Check every module; exit 1 if any fails to import alone."""
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
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
