#!/usr/bin/env python
"""Docstring-coverage gate — back-compat shim over repro-lint.

The check itself now lives in the lint framework as the
``docstring-coverage`` rule (:mod:`repro.analysis.rules.docstrings`); this
script keeps the historical entry point (``make docs-check``, CI, muscle
memory) alive by delegating to it.  ``python -m repro.analysis`` runs the
same rule alongside the rest of the suite.

Usage::

    python tools/check_docstrings.py            # check the default targets
    python tools/check_docstrings.py PATH...    # check specific files/dirs
"""

from __future__ import annotations

import os
import sys
from typing import List, Optional

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_ROOT, "src"))

from repro.analysis import run_lint  # noqa: E402 - path setup first
from repro.analysis.rules.docstrings import TARGETS  # noqa: E402


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry: run the docstring-coverage rule, exit 1 on any miss.

    With no arguments the rule's own target set applies (service/,
    mitigation/, obs/, analysis/, core/, defenses/, eval/experiments.py,
    eval/timing.py);
    explicit paths are checked in full, mirroring the original script.
    """
    targets = (argv if argv is not None else sys.argv[1:]) or None
    result = run_lint(root=_ROOT, targets=targets or list(TARGETS),
                      select=["docstring-coverage"], baseline=None,
                      ignore_scope=targets is not None)
    if not result.ok:
        for violation in result.violations:
            print(violation.format(), file=sys.stderr)
        print(f"\n{len(result.violations)} missing docstring(s) across "
              f"{result.files_checked} file(s).", file=sys.stderr)
        return 1
    print(f"docstring coverage OK ({result.files_checked} file(s)).")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
