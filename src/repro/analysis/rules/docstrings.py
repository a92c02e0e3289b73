"""docstring-coverage: the public API surface must be documented.

The lint-framework port of ``tools/check_docstrings.py`` (which remains as
a thin shim over this rule): every public module, class, function, and
method in the documented layers must carry a docstring.  Public = name
not starting with ``_``; dunders and private helpers are exempt.  The
covered layers feed ``tools/gen_api_docs.py``, so a miss here is a hole
in ``docs/api.md``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from . import Rule, register

#: Trees/files whose public surface is documentation-gated.
TARGETS = (
    "src/repro/service",
    "src/repro/mitigation",
    "src/repro/obs",
    "src/repro/analysis",
    "src/repro/core",
    "src/repro/defenses",
    "src/repro/eval/experiments.py",
    "src/repro/eval/timing.py",
)


def _is_public(name: str) -> bool:
    return not name.startswith("_")


@register
class DocstringCoverageRule(Rule):
    """Flag undocumented public modules, classes, functions, and methods."""

    name = "docstring-coverage"
    description = ("public modules/classes/functions in service/, "
                   "mitigation/, obs/, analysis/, core/, defenses/, "
                   "eval/experiments.py and eval/timing.py must carry "
                   "docstrings")

    def applies_to(self, path: str) -> bool:
        """Only the documented layers (see :data:`TARGETS`)."""
        return self._in_trees(path, TARGETS)

    def check(self, ctx) -> Iterator:
        """Mirror the original ``check_docstrings`` walk."""
        if ast.get_docstring(ctx.tree) is None:
            yield ctx.violation(self.name, 1, "missing module docstring")
        for node in ctx.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and _is_public(node.name):
                if ast.get_docstring(node) is None:
                    yield ctx.violation(
                        self.name, node,
                        f"missing docstring for function {node.name}")
            elif isinstance(node, ast.ClassDef) and _is_public(node.name):
                if ast.get_docstring(node) is None:
                    yield ctx.violation(
                        self.name, node,
                        f"missing docstring for class {node.name}")
                for child in node.body:
                    if isinstance(child, (ast.FunctionDef,
                                          ast.AsyncFunctionDef)) and \
                            _is_public(child.name) and \
                            ast.get_docstring(child) is None:
                        yield ctx.violation(
                            self.name, child,
                            "missing docstring for method "
                            f"{node.name}.{child.name}")
