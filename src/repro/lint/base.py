"""Rule interface, parsed-file model and rule registry for ``repro lint``.

Rules self-register on the same decorator machinery as prefetchers and
engines (:mod:`repro.registry`)::

    from repro.lint.base import LintRule, register_rule

    @register_rule
    class MyRule(LintRule):
        rule_id = "RL042"
        title = "what this rule enforces"

        def check_file(self, src):
            ...

A rule sees either one :class:`SourceFile` at a time (``scope =
"file"``) or the whole :class:`Project` (``scope = "project"`` — for
cross-file invariants like schema fingerprints and counter parity).
Suppression is per line via ``# repro-lint: disable=RL001`` comments
(or ``disable-file=`` for a whole file) and is applied by the engine
after rules run, so rules never need to think about it.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Set

from repro.lint.diagnostics import Diagnostic
from repro.registry import Registry

#: Comment syntax that disables rules on one line / for a whole file.
SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*disable(?P<whole_file>-file)?\s*=\s*"
    r"(?P<rules>[A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*)")

#: Comment that marks a function as a zero-allocation hot path (RL001).
HOT_MARKER_RE = re.compile(r"#\s*repro:\s*hot\b")


class SourceFile:
    """One scanned file: text, lines, suppressions and (for .py) the AST.

    ``rel`` is the root-relative POSIX path rules anchor diagnostics to.
    Non-Python files (the TOML specs RL003 scans) carry ``tree = None``
    but still get suppression-comment parsing — ``#`` starts a comment
    in TOML too.
    """

    def __init__(self, path: Path, rel: str, source: str) -> None:
        self.path = path
        self.rel = rel
        self.source = source
        self.lines: List[str] = source.splitlines()
        self.tree: Optional[ast.Module] = None
        if path.suffix == ".py":
            # SyntaxError propagates; the engine turns it into a diagnostic.
            self.tree = ast.parse(source, filename=str(path))
        self._line_disables: Dict[int, Set[str]] = {}
        self._file_disables: Set[str] = set()
        for number, line in enumerate(self.lines, start=1):
            match = SUPPRESS_RE.search(line)
            if match is None:
                continue
            rules = {r.strip().upper()
                     for r in match.group("rules").split(",") if r.strip()}
            if match.group("whole_file"):
                self._file_disables |= rules
            else:
                self._line_disables.setdefault(number, set()).update(rules)

    def suppressed(self, rule_id: str, line: int) -> bool:
        """Whether ``rule_id`` is disabled on ``line`` (or file-wide)."""
        rule = rule_id.upper()
        if rule in self._file_disables:
            return True
        return rule in self._line_disables.get(line, set())

    def hot_marker_lines(self) -> Set[int]:
        """1-based line numbers carrying a ``# repro: hot`` marker."""
        return {number for number, line in enumerate(self.lines, start=1)
                if HOT_MARKER_RE.search(line)}

    def find_line(self, needle: str, default: int = 1) -> int:
        """First 1-based line containing ``needle`` (``default`` if absent).

        Used to anchor diagnostics in files rules do not parse
        structurally (TOML specs carry no AST line information).
        """
        for number, line in enumerate(self.lines, start=1):
            if needle in line:
                return number
        return default


class Project:
    """Everything a project-scoped rule may inspect in one lint run."""

    def __init__(self, root: Path, files: List[SourceFile],
                 spec_files: List[SourceFile],
                 fingerprints_path: Path) -> None:
        self.root = root
        #: Parsed Python files under the scanned paths, sorted by rel.
        self.files = files
        #: TOML spec/fixture documents (RL003 targets), sorted by rel.
        self.spec_files = spec_files
        #: Where the committed schema fingerprints live (RL002).
        self.fingerprints_path = fingerprints_path

    def file_map(self) -> Dict[str, SourceFile]:
        """All scanned files (Python and spec) keyed by relative path."""
        table = {f.rel: f for f in self.files}
        table.update({f.rel: f for f in self.spec_files})
        return table


class LintRule:
    """Base class for lint rules; subclasses override one ``check_*``.

    ``scope`` selects which hook the engine calls: ``"file"`` rules get
    :meth:`check_file` once per scanned Python file, ``"project"``
    rules get :meth:`check_project` once per run.
    """

    rule_id: str = ""
    title: str = ""
    scope: str = "file"

    def check_file(self, src: SourceFile) -> Iterable[Diagnostic]:
        """Findings for one parsed source file (file-scoped rules)."""
        return ()

    def check_project(self, project: Project) -> Iterable[Diagnostic]:
        """Findings for the whole tree (project-scoped rules)."""
        return ()

    def diagnostic(self, rel: str, line: int, message: str) -> Diagnostic:
        """A :class:`Diagnostic` stamped with this rule's id."""
        return Diagnostic(rule=self.rule_id, path=rel, line=line,
                          message=message)


#: The process-wide lint-rule registry (rule id -> LintRule subclass).
rule_registry: Registry[LintRule] = Registry("lint rule")


def register_rule(cls: type) -> type:
    """Class decorator registering a :class:`LintRule` under its id."""
    if not getattr(cls, "rule_id", ""):
        raise ValueError(f"{cls.__name__} must set a rule_id")
    rule_registry.register(cls.rule_id)(cls)
    return cls


def all_rule_ids() -> List[str]:
    """Every registered rule id, upper-cased and sorted."""
    return [name.upper() for name in rule_registry.names()]


def make_rules(ids: Optional[Iterable[str]] = None) -> List[LintRule]:
    """Instantiate the selected rules (all registered rules by default).

    Unknown ids raise :class:`repro.registry.UnknownComponentError`, so
    a ``--rules`` typo lists the rules that do exist.
    """
    selected = list(ids) if ids is not None else all_rule_ids()
    return [rule_registry.create(rule_id) for rule_id in selected]


def iter_hot_functions(src: SourceFile) -> Iterator[ast.AST]:
    """Functions in ``src`` marked hot via ``# repro: hot``.

    A function counts as marked when the comment sits on its ``def``
    line, on any decorator line, or on the line directly above the
    first of those — the three places the marker reads naturally.
    """
    if src.tree is None:
        return
    markers = src.hot_marker_lines()
    if not markers:
        return
    for node in ast.walk(src.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        lines = {node.lineno}
        lines.update(dec.lineno for dec in node.decorator_list)
        lines.add(min(lines) - 1)
        if lines & markers:
            yield node
