"""RL005 — ``__slots__`` completeness for the hot-path record classes.

The PR 2 hot path leans on ``__slots__`` twice over: reused records
stay allocation-free, and attribute access compiles to a fixed-offset
load instead of a dict probe.  A typo'd ``self.attribtue = ...`` in a
slotted class only explodes when that line finally runs — and adding
an attribute to a method without declaring the slot quietly fails the
same way.  This rule checks it statically: in any class that declares
``__slots__`` (literally, or via ``@dataclass(slots=True)``), every
``self.<name>`` assignment must hit a declared slot, an inherited slot
or a class-level descriptor (property/attribute).

Classes whose base classes cannot be resolved statically to slotted
(or trivially slot-free, e.g. ``Generic``) classes are skipped rather
than guessed at — an unresolved base may contribute ``__dict__``,
which makes every write legal.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.lint.base import LintRule, Project, register_rule
from repro.lint.diagnostics import Diagnostic

#: Bases known to contribute no instance ``__dict__`` and no slots.
_EMPTY_SLOT_BASES = {"object", "Generic"}

#: Sentinel for a ``__slots__`` whose value is not a literal we can read.
_UNKNOWN = None


class _ClassInfo:
    """Statically-extracted facts about one class definition."""

    def __init__(self, name: str, rel: str, node: ast.ClassDef) -> None:
        self.name = name
        self.rel = rel
        self.node = node
        self.bases = self._base_names(node)
        self.has_slots_stmt, self.slots = self._declared_slots(node)
        self.dataclass_slots = self._dataclass_slots(node)
        self.field_names = self._annotated_fields(node)
        self.class_level_names = self._class_level_names(node)
        self.writes = self._self_writes(node)

    @staticmethod
    def _base_names(node: ast.ClassDef) -> List[str]:
        names = []
        for base in node.bases:
            if isinstance(base, ast.Name):
                names.append(base.id)
            elif isinstance(base, ast.Attribute):
                names.append(base.attr)
            elif isinstance(base, ast.Subscript):
                # Generic[T] and friends: use the subscripted name.
                inner = base.value
                if isinstance(inner, ast.Name):
                    names.append(inner.id)
                elif isinstance(inner, ast.Attribute):
                    names.append(inner.attr)
                else:
                    names.append("?")
            else:
                names.append("?")
        return names

    @staticmethod
    def _declared_slots(node: ast.ClassDef
                        ) -> Tuple[bool, Optional[Set[str]]]:
        """``(declared, names)`` for the class's ``__slots__`` statement.

        ``declared`` is False when no ``__slots__`` assignment exists
        at all (a literal empty tuple still counts as declared);
        ``names`` is ``_UNKNOWN`` when the value is not a string
        literal collection we can read.
        """
        for member in node.body:
            targets: List[ast.AST] = []
            value: Optional[ast.AST] = None
            if isinstance(member, ast.Assign):
                targets, value = list(member.targets), member.value
            elif isinstance(member, ast.AnnAssign) and member.value is not None:
                targets, value = [member.target], member.value
            for target in targets:
                if isinstance(target, ast.Name) and target.id == "__slots__":
                    if isinstance(value, (ast.Tuple, ast.List, ast.Set)):
                        names = set()
                        for elt in value.elts:
                            if isinstance(elt, ast.Constant) \
                                    and isinstance(elt.value, str):
                                names.add(elt.value)
                            else:
                                return True, _UNKNOWN
                        return True, names
                    if isinstance(value, ast.Constant) \
                            and isinstance(value.value, str):
                        return True, {value.value}
                    return True, _UNKNOWN
        return False, set()

    @staticmethod
    def _dataclass_slots(node: ast.ClassDef) -> bool:
        for dec in node.decorator_list:
            if not isinstance(dec, ast.Call):
                continue
            target = dec.func
            name = target.id if isinstance(target, ast.Name) else \
                target.attr if isinstance(target, ast.Attribute) else None
            if name != "dataclass":
                continue
            for kw in dec.keywords:
                if kw.arg == "slots" and isinstance(kw.value, ast.Constant) \
                        and kw.value.value is True:
                    return True
        return False

    @staticmethod
    def _annotated_fields(node: ast.ClassDef) -> Set[str]:
        return {member.target.id for member in node.body
                if isinstance(member, ast.AnnAssign)
                and isinstance(member.target, ast.Name)}

    @staticmethod
    def _class_level_names(node: ast.ClassDef) -> Set[str]:
        """Descriptors and constants a slotted instance may still assign.

        Properties (and other data descriptors bound at class level)
        intercept ``self.x = ...`` even under ``__slots__``, so their
        names are legal targets.
        """
        names: Set[str] = set()
        for member in node.body:
            if isinstance(member, ast.Assign):
                names.update(t.id for t in member.targets
                             if isinstance(t, ast.Name))
            elif isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and member.decorator_list:
                names.add(member.name)
        return names

    @staticmethod
    def _self_writes(node: ast.ClassDef) -> List[Tuple[str, int]]:
        writes: List[Tuple[str, int]] = []
        for member in node.body:
            if not isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for sub in ast.walk(member):
                targets: List[ast.AST] = []
                if isinstance(sub, ast.Assign):
                    targets = list(sub.targets)
                elif isinstance(sub, (ast.AnnAssign, ast.AugAssign)):
                    targets = [sub.target]
                elif isinstance(sub, (ast.For, ast.AsyncFor)):
                    targets = [sub.target]
                for target in targets:
                    for leaf in ast.walk(target):
                        if isinstance(leaf, ast.Attribute) \
                                and isinstance(leaf.value, ast.Name) \
                                and leaf.value.id == "self":
                            writes.append((leaf.attr, leaf.lineno))
        return writes

    def declares_slots(self) -> bool:
        """Whether the class opts in to slot layout at all."""
        return self.dataclass_slots or self.has_slots_stmt


def _collect_classes(project: Project) -> Dict[str, List[_ClassInfo]]:
    table: Dict[str, List[_ClassInfo]] = {}
    for src in project.files:
        if src.tree is None:
            continue
        for node in ast.walk(src.tree):
            if isinstance(node, ast.ClassDef):
                info = _ClassInfo(node.name, src.rel, node)
                table.setdefault(node.name, []).append(info)
    return table


def _allowed_names(info: _ClassInfo,
                   table: Dict[str, List[_ClassInfo]]) -> Optional[Set[str]]:
    """The legal ``self.<name>`` targets, or None if unresolvable."""
    if info.slots is _UNKNOWN:
        return None
    allowed = set(info.slots or set())
    if info.dataclass_slots:
        allowed |= info.field_names
    allowed |= info.class_level_names
    for base in info.bases:
        if base in _EMPTY_SLOT_BASES:
            continue
        candidates = table.get(base, [])
        if len(candidates) != 1:
            return None  # unknown or ambiguous base: cannot be sure
        base_info = candidates[0]
        if not base_info.declares_slots():
            return None  # base contributes __dict__; every write is legal
        base_allowed = _allowed_names(base_info, table)
        if base_allowed is None:
            return None
        allowed |= base_allowed
    return allowed


@register_rule
class SlotsCompletenessRule(LintRule):
    """Slotted classes may only assign attributes their slots declare."""

    rule_id = "RL005"
    title = "__slots__ classes must declare every written attribute"
    scope = "project"

    def check_project(self, project: Project) -> Iterator[Diagnostic]:
        """Check each slot-declaring class with resolvable bases."""
        table = _collect_classes(project)
        for infos in table.values():
            for info in infos:
                if not info.declares_slots():
                    continue
                allowed = _allowed_names(info, table)
                if allowed is None:
                    continue
                reported: Set[str] = set()
                for attr, lineno in info.writes:
                    if attr in allowed or attr in reported:
                        continue
                    reported.add(attr)
                    yield self.diagnostic(
                        info.rel, lineno,
                        f"attribute self.{attr} assigned in slotted class "
                        f"{info.name!r} but not declared in __slots__ "
                        f"(declared: {', '.join(sorted(allowed)) or '(none)'})")
