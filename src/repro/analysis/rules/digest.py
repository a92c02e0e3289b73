"""digest-hygiene: request fields must be keyed or declared transport-only.

Verdict caching is only sound when the cache key covers **everything that
can change the outcome** and **nothing that cannot** (PR 6 had to keep
``inversion_mode`` out of legacy digests; PR 7 had to keep trace ids out
of every digest).  This rule enforces both directions statically:

1. every field of the frozen request dataclasses (``ScanRequest``,
   ``RepairRequest``) must be *read by its resolver*
   (``resolve_request`` / ``resolve_repair`` — the functions that produce
   the cache key), directly or through a same-module helper the request
   is passed to (e.g. ``_detector_config(request)``), or be listed in
   :data:`TRANSPORT_ONLY`;
2. every field of the resolved-job dataclasses (``ResolvedScan``,
   ``ResolvedRepair``) must be passed explicitly at the resolver's
   construction site, or be listed in :data:`TRANSPORT_ONLY`;
3. no dict handed to ``digest_config`` may carry a key from
   :data:`TRANSPORT_DENY` — transport/telemetry fields must never reach a
   cache-key digest.

Adding a new request knob without threading it through the resolver (or
explicitly allowlisting it here with a review) fails the lint.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set

from ..astutil import dataclass_fields, dotted_name, find_class, find_function
from . import ProjectRule, register

#: Fields that deliberately bypass the digest: per-run transport context.
#: Adding a name here is a reviewed statement that the field can never
#: change a verdict.
TRANSPORT_ONLY = frozenset({"trace_id", "parent_span_id"})

#: Keys that must never appear in a ``digest_config`` payload: transport
#: and outcome metadata whose presence in a key would shatter the cache.
TRANSPORT_DENY = frozenset({"trace_id", "parent_span_id", "spans",
                            "cache_hit", "created_at", "worker_pid",
                            "duration_seconds"})

#: (dataclass file, dataclass name, resolver file, resolver name).
_REQUEST_SPECS = (
    ("src/repro/service/records.py", "ScanRequest",
     "src/repro/service/scheduler.py", "resolve_request"),
    ("src/repro/service/records.py", "RepairRequest",
     "src/repro/service/repair.py", "resolve_repair"),
)

#: (file, resolved dataclass name, resolver name in the same file).
_RESOLVED_SPECS = (
    ("src/repro/service/scheduler.py", "ResolvedScan", "resolve_request"),
    ("src/repro/service/repair.py", "ResolvedRepair", "resolve_repair"),
)

#: Files whose ``digest_config`` payloads are checked against the deny set.
_DIGEST_FILES = ("src/repro/service/scheduler.py",
                 "src/repro/service/repair.py",
                 "src/repro/service/fingerprint.py")


def _attr_reads(func: ast.FunctionDef, param: str,
                module: ast.Module, depth: int = 2) -> Set[str]:
    """Attribute names read off ``param`` inside ``func``.

    Follows one level of same-module helper calls that receive the param
    (``_detector_config(request)`` counts reads on its own parameter), so
    resolvers can factor digest inputs into helpers without tripping the
    rule.
    """
    reads: Set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Attribute) and \
                isinstance(node.value, ast.Name) and node.value.id == param:
            reads.add(node.attr)
        if depth <= 0 or not isinstance(node, ast.Call) or \
                not isinstance(node.func, ast.Name):
            continue
        callee = find_function(module, node.func.id)
        if callee is None or callee is func:
            continue
        positions = [i for i, arg in enumerate(node.args)
                     if isinstance(arg, ast.Name) and arg.id == param]
        names = [kw.arg for kw in node.keywords
                 if isinstance(kw.value, ast.Name) and kw.value.id == param
                 and kw.arg is not None]
        params = [a.arg for a in callee.args.args]
        for index in positions:
            if index < len(params):
                names.append(params[index])
        for inner_param in names:
            reads |= _attr_reads(callee, inner_param, module, depth - 1)
    return reads


def _constructed_keywords(func: ast.FunctionDef, class_name: str) -> Set[str]:
    """Keyword names passed to ``class_name(...)`` calls inside ``func``."""
    keywords: Set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            if name and name[-1] == class_name:
                keywords |= {kw.arg for kw in node.keywords
                             if kw.arg is not None}
    return keywords


def _dict_keys(node: ast.AST) -> List[str]:
    """Constant string keys of a dict literal (non-constant keys skipped)."""
    if not isinstance(node, ast.Dict):
        return []
    return [key.value for key in node.keys
            if isinstance(key, ast.Constant) and isinstance(key.value, str)]


def _digest_payload_keys(func: ast.FunctionDef, call: ast.Call) -> List[str]:
    """Keys of the dict a ``digest_config(...)`` call digests.

    Handles a dict literal argument directly, or a name assigned a dict
    literal earlier in the same function (``digest_payload = {...}``),
    including later ``payload["k"] = ...`` augmentations.
    """
    if not call.args:
        return []
    arg = call.args[0]
    if isinstance(arg, ast.Dict):
        return _dict_keys(arg)
    if not isinstance(arg, ast.Name):
        return []
    keys: List[str] = []
    for node in ast.walk(func):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == arg.id:
                    keys.extend(_dict_keys(node.value))
        elif isinstance(node, ast.Subscript) and \
                isinstance(node.value, ast.Name) and \
                node.value.id == arg.id and \
                isinstance(node.slice, ast.Constant) and \
                isinstance(node.slice.value, str) and \
                isinstance(getattr(node, "ctx", None), ast.Store):
            keys.append(node.slice.value)
    return keys


@register
class DigestHygieneRule(ProjectRule):
    """Cross-check request/resolved field sets against the digest builders."""

    name = "digest-hygiene"
    description = ("every ScanRequest/RepairRequest/Resolved* field must be "
                   "folded into the cache key by its resolver or be on the "
                   "transport-only allowlist; digests must never contain "
                   "transport keys")

    def applies_to(self, path: str) -> bool:
        """Only the service layer participates."""
        return self._in_trees(path, ("src/repro/service",))

    def check_project(self, files: Dict[str, "object"]) -> Iterator:
        """Run all three checks over the parsed service modules."""
        for class_file, class_name, resolver_file, resolver_name \
                in _REQUEST_SPECS:
            holder, resolver_holder = files.get(class_file), \
                files.get(resolver_file)
            if holder is None or resolver_holder is None:
                continue
            cls = find_class(holder.tree, class_name)
            resolver = find_function(resolver_holder.tree, resolver_name)
            if cls is None or resolver is None:
                continue
            param = resolver.args.args[0].arg if resolver.args.args else None
            covered = (_attr_reads(resolver, param, resolver_holder.tree)
                       if param else set())
            for field_name, lineno in dataclass_fields(cls):
                if field_name in covered or field_name in TRANSPORT_ONLY:
                    continue
                yield holder.violation(
                    self.name, lineno,
                    f"{class_name}.{field_name} is never read by "
                    f"{resolver_name}() — fold it into the config digest "
                    "or add it to the digest-hygiene transport-only "
                    "allowlist")

        for path, class_name, resolver_name in _RESOLVED_SPECS:
            holder = files.get(path)
            if holder is None:
                continue
            cls = find_class(holder.tree, class_name)
            resolver = find_function(holder.tree, resolver_name)
            if cls is None or resolver is None:
                continue
            constructed = _constructed_keywords(resolver, class_name)
            for field_name, lineno in dataclass_fields(cls):
                if field_name in constructed or field_name in TRANSPORT_ONLY:
                    continue
                yield holder.violation(
                    self.name, lineno,
                    f"{class_name}.{field_name} is not set where "
                    f"{resolver_name}() builds the resolved job — pass it "
                    "at construction (keyed) or add it to the "
                    "transport-only allowlist")

        for path in _DIGEST_FILES:
            holder = files.get(path)
            if holder is None:
                continue
            for func in ast.walk(holder.tree):
                if not isinstance(func, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                    continue
                for call in ast.walk(func):
                    if not isinstance(call, ast.Call):
                        continue
                    name = dotted_name(call.func)
                    if not name or name[-1] != "digest_config":
                        continue
                    for key in _digest_payload_keys(func, call):
                        if key in TRANSPORT_DENY:
                            yield holder.violation(
                                self.name, call,
                                f"transport field '{key}' folded into a "
                                "digest_config payload — transport context "
                                "must never enter a cache key")
