"""No module imports a name that it never uses.

A name counts as used when it occurs again anywhere in the module,
outside its own import statement: in code, in ``__all__``, or in a
string annotation.  Imports kept for their side effects (the component
registrations) are marked ``# noqa`` and skipped.  ``perfbench/`` is
the benchmark's own code and is not scanned.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "benchmarks", "tools")


def unused_imports(path: Path) -> List[Tuple[int, str]]:
    """``(line, name)`` of every name ``path`` imports but never uses."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    found = []
    for node in ast.walk(ast.parse(source, filename=str(path))):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        statement = "\n".join(lines[node.lineno - 1:node.end_lineno])
        for alias in node.names:
            marked = {lines[node.lineno - 1], lines[alias.lineno - 1]}
            if alias.name == "*" or any("# noqa" in line for line in marked):
                continue
            name = alias.asname or alias.name.split(".")[0]
            word = re.compile(rf"\b{re.escape(name)}\b")
            if len(word.findall(source)) == len(word.findall(statement)):
                found.append((alias.lineno, name))
    return found


def test_unused_imports_flags_only_names_never_used_again(tmp_path):
    module = tmp_path / "probe.py"
    module.write_text(
        "import os\n"
        "import json  # noqa: F401 - imported for its side effects\n"
        "from typing import (\n"
        "    Dict,\n"
        "    List,\n"
        ")\n"
        "__all__ = ['os']\n"
        "def f() -> 'List[int]':\n"
        "    return []\n", encoding="utf-8")
    assert unused_imports(module) == [(4, "Dict")]


def test_no_module_imports_a_name_it_never_uses():
    found = [f"{path.relative_to(REPO_ROOT)}:{line}: {name}"
             for directory in SCANNED
             for path in sorted((REPO_ROOT / directory).rglob("*.py"))
             for line, name in unused_imports(path)]
    assert not found, "unused imports:\n" + "\n".join(found)
