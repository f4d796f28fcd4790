"""``repro.lint`` — static analysis for the repo's unwritten rules.

The reproduction's correctness rests on invariants no generic linter
knows: the zero-allocation hot path, schema-versioned serialization,
registry-resolved component names, bit-reproducible simulation and
``__slots__`` discipline.  This package enforces them as named,
individually-suppressible AST rules — ``RL001``..``RL007`` — discovered
through the same decorator registry as prefetchers, and surfaced
through ``repro lint`` / ``python -m repro.lint`` with text or JSON
diagnostics CI can gate on.

Suppress a single finding in place with ``# repro-lint:
disable=RL001`` (comma-separate multiple ids; ``disable-file=``
silences a whole file), and mark a function as an allocation-free hot
path with ``# repro: hot`` on or directly above its ``def``.
"""

from repro.lint.base import (
    LintRule,
    Project,
    SourceFile,
    all_rule_ids,
    make_rules,
    register_rule,
    rule_registry,
)
from repro.lint.diagnostics import (
    LINT_SCHEMA_VERSION,
    Diagnostic,
    LintReport,
    payload_to_diagnostics,
)
from repro.lint.engine import LintEngine, default_root

__all__ = [
    "LINT_SCHEMA_VERSION",
    "Diagnostic",
    "LintEngine",
    "LintReport",
    "LintRule",
    "Project",
    "SourceFile",
    "all_rule_ids",
    "default_root",
    "make_rules",
    "payload_to_diagnostics",
    "register_rule",
    "rule_registry",
]
