"""RL002 — the schema-version guard.

Cache identity (PR 4), job keys (PR 6) and the wire protocol (PR 8)
all hash canonically-serialized dataclasses, each stamped by a version
constant (``CONFIG_SCHEMA_VERSION``, ``JOB_SCHEMA_VERSION``,
``TRACE_FORMAT_VERSION``, ``PROTOCOL_VERSION``, ...).  The unwritten
rule: *changing a serialized field set without bumping its version
silently invalidates or, worse, aliases previously cached artifacts.*

This rule makes the field sets explicit.  ``repro lint
--update-fingerprints`` snapshots, per version constant, the field
names of every serialized class in its blast radius (classes in the
constant's module that are dataclasses or define ``to_dict`` /
``from_dict``; for ``CONFIG_SCHEMA_VERSION``, every
``SerializableConfig`` subclass tree-wide) plus any ``*_KEYS``
envelope constants, into ``tools/schema_fingerprints.json``.  The lint
then fails whenever the live tree disagrees with the committed
snapshot — which catches both a field edit without a version bump and
a version bump whose commit forgot to re-baseline.
"""

from __future__ import annotations

import ast
import json
import re
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.lint.base import LintRule, Project, register_rule
from repro.lint.diagnostics import Diagnostic

#: Version stamp of the fingerprint file itself.
FINGERPRINT_SCHEMA_VERSION = 1

#: Module-level constants that stamp a serialized surface.
VERSION_CONST_RE = re.compile(r"(SCHEMA|FORMAT|PROTOCOL)_VERSION$")

#: Module-level constants that pin a wire envelope's key set.
KEY_SET_RE = re.compile(r"_KEYS$")

#: The config version guards every SerializableConfig subclass tree-wide.
CONFIG_GROUP = "CONFIG_SCHEMA_VERSION"


def _const_str(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _assign_name(node: ast.stmt) -> Optional[Tuple[str, ast.AST]]:
    """(name, value) for a simple module/class-level assignment."""
    if isinstance(node, ast.Assign) and len(node.targets) == 1 \
            and isinstance(node.targets[0], ast.Name):
        return node.targets[0].id, node.value
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name) \
            and node.value is not None:
        return node.target.id, node.value
    return None


def _key_set_values(value: ast.AST) -> Optional[List[str]]:
    """The sorted string members of a set/frozenset literal, else None."""
    elts: Optional[List[ast.AST]] = None
    if isinstance(value, ast.Set):
        elts = list(value.elts)
    elif isinstance(value, ast.Call) and isinstance(value.func, ast.Name) \
            and value.func.id in ("set", "frozenset") and len(value.args) == 1:
        inner = value.args[0]
        if isinstance(inner, (ast.Set, ast.Tuple, ast.List)):
            elts = list(inner.elts)
    if elts is None:
        return None
    members = [_const_str(e) for e in elts]
    if any(m is None for m in members):
        return None
    return sorted(m for m in members if m is not None)


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.id if isinstance(target, ast.Name) else \
            target.attr if isinstance(target, ast.Attribute) else None
        if name == "dataclass":
            return True
    return False


def _defines_serialization(node: ast.ClassDef) -> bool:
    return any(isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
               and member.name in ("to_dict", "from_dict")
               for member in node.body)


def _base_names(node: ast.ClassDef) -> List[str]:
    names = []
    for base in node.bases:
        if isinstance(base, ast.Name):
            names.append(base.id)
        elif isinstance(base, ast.Attribute):
            names.append(base.attr)
    return names


def _class_fields(node: ast.ClassDef) -> List[str]:
    """Public annotated fields of a class body, in declaration order."""
    fields = []
    for member in node.body:
        if isinstance(member, ast.AnnAssign) \
                and isinstance(member.target, ast.Name) \
                and not member.target.id.startswith("_"):
            fields.append(member.target.id)
    return fields


def collect_fingerprints(project: Project) -> Dict[str, Any]:
    """The live tree's fingerprint payload (what RL002 compares against).

    Also the payload ``repro lint --update-fingerprints`` writes to
    ``tools/schema_fingerprints.json``.
    """
    groups: Dict[str, Dict[str, Any]] = {}
    config_classes: Dict[str, List[str]] = {}
    class_lines: Dict[str, int] = {}

    for src in project.files:
        if src.tree is None:
            continue
        constants: List[Tuple[str, Any, int]] = []
        key_sets: Dict[str, List[str]] = {}
        classes: Dict[str, List[str]] = {}
        for node in src.tree.body:
            assign = _assign_name(node)
            if assign is not None:
                name, value = assign
                if VERSION_CONST_RE.search(name):
                    version = value.value if isinstance(value, ast.Constant) \
                        else None
                    constants.append((name, version, node.lineno))
                elif KEY_SET_RE.search(name):
                    members = _key_set_values(value)
                    if members is not None:
                        key_sets[name] = members
            elif isinstance(node, ast.ClassDef):
                ref = f"{src.rel}::{node.name}"
                class_lines[ref] = node.lineno
                if _is_dataclass(node) or _defines_serialization(node):
                    classes[ref] = _class_fields(node)
                if "SerializableConfig" in _base_names(node):
                    config_classes[ref] = _class_fields(node)
        for name, version, lineno in constants:
            key = name if name not in groups else f"{name} ({src.rel})"
            groups[key] = {
                "defined_in": src.rel,
                "line": lineno,
                "version": version,
                "classes": dict(sorted(classes.items())),
                "key_sets": dict(sorted(key_sets.items())),
            }

    if CONFIG_GROUP in groups:
        merged = dict(groups[CONFIG_GROUP]["classes"])
        merged.update(config_classes)
        groups[CONFIG_GROUP]["classes"] = dict(sorted(merged.items()))
    return {
        "fingerprint_schema_version": FINGERPRINT_SCHEMA_VERSION,
        "generated_by": "repro lint --update-fingerprints",
        "groups": {k: {field: v for field, v in groups[k].items()
                       if field != "line"}
                   for k in sorted(groups)},
        "_lines": {k: groups[k]["line"] for k in groups},
        "_class_lines": class_lines,
    }


def strip_internal(payload: Dict[str, Any]) -> Dict[str, Any]:
    """The payload without the ``_``-prefixed line-anchor scaffolding."""
    return {k: v for k, v in payload.items() if not k.startswith("_")}


@register_rule
class SchemaVersionRule(LintRule):
    """Serialized field sets must match the committed fingerprints."""

    rule_id = "RL002"
    title = "serialized schemas need a version bump + fingerprint regen"
    scope = "project"

    def check_project(self, project: Project) -> Iterator[Diagnostic]:
        """Compare the live tree against ``tools/schema_fingerprints.json``."""
        current = collect_fingerprints(project)
        groups = current["groups"]
        lines: Dict[str, int] = current["_lines"]
        class_lines: Dict[str, int] = current["_class_lines"]
        fp_path = project.fingerprints_path
        try:
            fp_rel = fp_path.relative_to(project.root).as_posix()
        except ValueError:
            fp_rel = str(fp_path)

        if not fp_path.exists():
            if groups:
                yield self.diagnostic(
                    fp_rel, 1,
                    f"schema fingerprint file is missing but "
                    f"{len(groups)} version constant(s) exist; run "
                    f"`repro lint --update-fingerprints` and commit it")
            return
        try:
            committed = json.loads(fp_path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            yield self.diagnostic(
                fp_rel, 1, f"unreadable fingerprint file: {exc}")
            return
        if committed.get("fingerprint_schema_version") \
                != FINGERPRINT_SCHEMA_VERSION:
            yield self.diagnostic(
                fp_rel, 1,
                "fingerprint file has an unsupported "
                "fingerprint_schema_version; run "
                "`repro lint --update-fingerprints`")
            return

        committed_groups = committed.get("groups", {})
        for name in sorted(set(committed_groups) - set(groups)):
            yield self.diagnostic(
                fp_rel, 1,
                f"fingerprint group {name!r} no longer matches any version "
                f"constant in the tree; run `repro lint --update-fingerprints`")
        for name in sorted(set(groups) - set(committed_groups)):
            group = groups[name]
            yield self.diagnostic(
                group["defined_in"], lines.get(name, 1),
                f"{name} has no committed fingerprint; run "
                f"`repro lint --update-fingerprints` and commit the result")
        for name in sorted(set(groups) & set(committed_groups)):
            yield from self._compare_group(
                name, groups[name], committed_groups[name],
                lines.get(name, 1), class_lines, fp_rel)

    def _compare_group(self, name: str, current: Dict[str, Any],
                       committed: Dict[str, Any], const_line: int,
                       class_lines: Dict[str, int],
                       fp_rel: str) -> Iterator[Diagnostic]:
        defined_in = current["defined_in"]
        if current.get("version") != committed.get("version"):
            yield self.diagnostic(
                defined_in, const_line,
                f"{name} is {current.get('version')!r} but the committed "
                f"fingerprint recorded {committed.get('version')!r}; run "
                f"`repro lint --update-fingerprints` to re-baseline the "
                f"serialized field sets in the same commit as the bump")
            return
        cur_classes: Dict[str, List[str]] = current.get("classes", {})
        old_classes: Dict[str, List[str]] = committed.get("classes", {})
        for ref in sorted(set(cur_classes) | set(old_classes)):
            cur = cur_classes.get(ref)
            old = old_classes.get(ref)
            if cur == old:
                continue
            added = sorted(set(cur or []) - set(old or []))
            removed = sorted(set(old or []) - set(cur or []))
            changes = []
            if cur is None:
                changes.append("class removed")
            elif old is None:
                changes.append("class added")
            if added:
                changes.append(f"fields added: {', '.join(added)}")
            if removed:
                changes.append(f"fields removed: {', '.join(removed)}")
            if not changes:
                changes.append("field order changed")
            if cur is not None:
                anchor_rel, anchor_line = ref.split("::")[0], \
                    class_lines.get(ref, const_line)
            else:
                anchor_rel, anchor_line = fp_rel, 1
            yield self.diagnostic(
                anchor_rel, anchor_line,
                f"serialized surface of {ref.split('::')[-1]} changed "
                f"({'; '.join(changes)}) while {name} stayed at "
                f"{current.get('version')!r} — bump {name} in {defined_in} "
                f"if the on-disk format is affected, then run "
                f"`repro lint --update-fingerprints`")
        cur_keys = current.get("key_sets", {})
        old_keys = committed.get("key_sets", {})
        for const in sorted(set(cur_keys) | set(old_keys)):
            if cur_keys.get(const) == old_keys.get(const):
                continue
            yield self.diagnostic(
                defined_in if const in cur_keys else fp_rel,
                const_line if const in cur_keys else 1,
                f"wire key set {const} changed while {name} stayed at "
                f"{current.get('version')!r} — bump {name} if the envelope "
                f"format is affected, then run "
                f"`repro lint --update-fingerprints`")
