#!/usr/bin/env python
"""Generate (or verify) ``docs/api.md`` from the public docstring surface.

The reference covers the curated ``__all__`` of the six public packages —
``repro.core``, ``repro.attacks``, ``repro.mitigation``, ``repro.service``,
``repro.obs``, ``repro.eval``, ``repro.analysis`` — and is
rendered purely from live docstrings and signatures, so it can never drift
from the code without ``--check`` (wired into ``make docs-check`` / CI)
failing.

Usage::

    python tools/gen_api_docs.py docs/api.md          # (re)generate
    python tools/gen_api_docs.py --check docs/api.md  # exit 1 on drift

Output is deterministic: symbols follow their package's ``__all__`` order,
method lists are sorted, and memory addresses are scrubbed from default
reprs.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import inspect
import json
import os
import re
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_ROOT, "src"))

PACKAGES = ["repro.core", "repro.attacks", "repro.mitigation",
            "repro.service", "repro.obs", "repro.eval", "repro.analysis"]

HEADER = """\
# API reference

<!-- GENERATED FILE - do not edit by hand.
     Regenerate with `make docs` (tools/gen_api_docs.py);
     `make docs-check` fails CI when this file is stale. -->

The public surface of the five user-facing packages, rendered from live
docstrings.  See [architecture.md](architecture.md) for how the layers fit
together and [ops.md](ops.md) for running the scanning service.
"""


def _signature(obj) -> str:
    """Best-effort deterministic signature text for a callable."""
    try:
        text = str(inspect.signature(obj))
    except (TypeError, ValueError):
        return "(...)"
    return re.sub(r" at 0x[0-9a-fA-F]+", "", text)


def _docstring(obj) -> str:
    doc = inspect.getdoc(obj)
    return doc.strip() if doc else "*(no docstring)*"


def _first_line(obj) -> str:
    return _docstring(obj).splitlines()[0]


def _field_table(obj) -> list:
    """The field reference of a request class whose fields carry help text.

    Each row is one field as its declaration states it (type annotation,
    default, help), the same text ``python -m repro <command> --help``
    shows for its flag; defaults are spelled as JSON, as a submit body
    sends them.
    """
    if not dataclasses.is_dataclass(obj):
        return []
    specs = [spec for spec in dataclasses.fields(obj)
             if "help" in spec.metadata]
    if not specs:
        return []
    lines = ["**Fields:**", "", "| Field | Type | Default | Description |",
             "| --- | --- | --- | --- |"]
    for spec in specs:
        default = ("required" if spec.default is dataclasses.MISSING
                   else f"`{json.dumps(spec.default)}`")
        text = spec.metadata["help"]
        if spec.metadata.get("choices"):
            text += " One of " + ", ".join(
                f"`{choice}`" for choice in spec.metadata["choices"]) + "."
        kind = (spec.type.__name__ if isinstance(spec.type, type)
                else str(spec.type).replace("typing.", ""))
        lines.append(f"| `{spec.name}` | `{kind}` | {default} | "
                     f"{text.replace('|', '/')} |")
    return lines + [""]


def _class_section(name: str, obj) -> list:
    lines = [f"### `{name}{_signature(obj)}`", "", _docstring(obj), ""]
    lines += _field_table(obj)
    methods = []
    # Methods a class inherits from a private base are part of its surface.
    attrs = {}
    for klass in reversed(obj.__mro__):
        if klass is obj or (klass is not object
                            and klass.__name__.startswith("_")):
            attrs.update(vars(klass))
    for attr_name, attr in sorted(attrs.items()):
        if attr_name.startswith("_"):
            continue
        if isinstance(attr, property):
            methods.append(f"- `.{attr_name}` (property) — "
                           f"{_first_line(attr.fget or attr)}")
        elif inspect.isfunction(attr):
            methods.append(f"- `.{attr_name}{_signature(attr)}` — "
                           f"{_first_line(attr)}")
        elif isinstance(attr, classmethod):
            methods.append(f"- `.{attr_name}{_signature(attr.__func__)}` "
                           f"(classmethod) — {_first_line(attr.__func__)}")
        elif isinstance(attr, staticmethod):
            methods.append(f"- `.{attr_name}{_signature(attr.__func__)}` "
                           f"(staticmethod) — {_first_line(attr.__func__)}")
    if methods:
        lines += ["**Public methods:**", ""] + methods + [""]
    return lines


def _symbol_section(name: str, obj) -> list:
    if inspect.isclass(obj):
        return _class_section(name, obj)
    if inspect.isfunction(obj):
        return [f"### `{name}{_signature(obj)}`", "", _docstring(obj), ""]
    kind = type(obj).__name__
    summary = f"Constant of type `{kind}`."
    if isinstance(obj, dict):
        keys = ", ".join(f"`{k}`" for k in obj)
        summary += f"  Keys: {keys}."
    elif isinstance(obj, (tuple, list)) and all(isinstance(v, str) for v in obj):
        summary += "  Values: " + ", ".join(f"`{v}`" for v in obj) + "."
    elif isinstance(obj, str):
        summary += f"  Value: `{obj!r}`."
    return [f"### `{name}`", "", summary, ""]


def generate() -> str:
    """Render the full ``docs/api.md`` text."""
    lines = [HEADER]
    for package_name in PACKAGES:
        module = importlib.import_module(package_name)
        lines += [f"## `{package_name}`", "", _docstring(module), ""]
        for symbol in module.__all__:
            lines += _symbol_section(symbol, getattr(module, symbol))
    return "\n".join(lines).rstrip() + "\n"


def main(argv=None) -> int:
    """CLI entry: write the reference, or verify it with ``--check``."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("output", nargs="?", default="docs/api.md")
    parser.add_argument("--check", action="store_true",
                        help="Verify the file is current; do not write.")
    args = parser.parse_args(argv)
    text = generate()
    if args.check:
        try:
            with open(args.output, "r", encoding="utf-8") as handle:
                current = handle.read()
        except FileNotFoundError:
            current = ""
        if current != text:
            print(f"{args.output} is stale — regenerate with `make docs`.",
                  file=sys.stderr)
            return 1
        print(f"{args.output} is current.")
        return 0
    os.makedirs(os.path.dirname(os.path.abspath(args.output)), exist_ok=True)
    with open(args.output, "w", encoding="utf-8") as handle:
        handle.write(text)
    print(f"wrote {args.output} ({len(text.splitlines())} lines).")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
