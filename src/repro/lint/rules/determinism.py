"""RL004 — the determinism lint for the simulation core.

Bit-identical replay is load-bearing here: golden-equivalence tests
compare runs statistic-for-statistic, job keys memoise results on
content alone, and the service dedups concurrent submissions by those
keys.  One wall-clock read or hash-order-dependent iteration in the
simulator breaks all three in ways that only reproduce intermittently.

Inside the simulation core (``repro.sim``, ``repro.engine``,
``repro.offchip``, plus the component packages they drive: ``cpu``,
``memory``, ``dram``, ``core``, ``prefetchers``) this rule flags

* wall-clock reads: ``time.time`` / ``time.time_ns``,
* entropy taps: ``os.urandom``, ``uuid.uuid1`` / ``uuid.uuid4``,
* the *module-level* ``random`` API (``random.random()``,
  ``random.shuffle()``, ...) whose global state is seeded by the
  interpreter — seeded ``random.Random(seed)`` instances stay legal,
* iterating directly over a set literal or ``set()`` call, whose order
  depends on string-hash randomization across interpreter runs.

Timing *measurement* (``time.perf_counter`` in the job runner, the
report generator and the service) lives outside these packages and is
deliberately not matched.
"""

from __future__ import annotations

import ast
from typing import Iterator, Tuple

from repro.lint.base import LintRule, SourceFile, register_rule
from repro.lint.diagnostics import Diagnostic

#: Path prefixes (relative, POSIX) the rule applies to.
CORE_PREFIXES: Tuple[str, ...] = (
    "sim/", "engine/", "offchip/", "cpu/", "memory/", "dram/", "core/",
    "prefetchers/",
)

_WALL_CLOCK = {("time", "time"), ("time", "time_ns")}
_ENTROPY = {("os", "urandom"), ("uuid", "uuid1"), ("uuid", "uuid4")}
#: random-module attributes that are deterministic to *construct*.
_RANDOM_OK = {"Random", "SystemRandom"}


def in_simulation_core(rel: str) -> bool:
    """Whether a relative path lies in a package this rule governs."""
    marker = "repro/"
    index = rel.rfind(marker)
    if index < 0:
        return False
    tail = rel[index + len(marker):]
    return tail.startswith(CORE_PREFIXES)


def _dotted(node: ast.AST) -> Tuple[str, str]:
    """``("time", "time")`` for ``time.time`` — else ``("", "")``."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return node.value.id, node.attr
    return "", ""


@register_rule
class DeterminismRule(LintRule):
    """No wall clock, entropy or set-iteration order in the simulator."""

    rule_id = "RL004"
    title = "simulation core must be bit-reproducible"
    scope = "file"

    def check_file(self, src: SourceFile) -> Iterator[Diagnostic]:
        """Scan one simulation-core module for nondeterminism sources."""
        if src.tree is None or not in_simulation_core(src.rel):
            return
        for node in ast.walk(src.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(src, node)
            elif isinstance(node, ast.ImportFrom):
                yield from self._check_import(src, node)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                yield from self._check_iteration(src, node)

    def _check_call(self, src: SourceFile,
                    node: ast.Call) -> Iterator[Diagnostic]:
        pair = _dotted(node.func)
        if pair in _WALL_CLOCK:
            yield self.diagnostic(
                src.rel, node.lineno,
                f"wall-clock read {pair[0]}.{pair[1]}() in the simulation "
                f"core; simulated time must come from the cycle counters")
        elif pair in _ENTROPY:
            yield self.diagnostic(
                src.rel, node.lineno,
                f"entropy source {pair[0]}.{pair[1]}() in the simulation "
                f"core; derive randomness from a seeded random.Random")
        elif pair[0] == "random" and pair[1] not in _RANDOM_OK:
            yield self.diagnostic(
                src.rel, node.lineno,
                f"module-level random.{pair[1]}() uses interpreter-global "
                f"RNG state; use a seeded random.Random instance")

    def _check_import(self, src: SourceFile,
                      node: ast.ImportFrom) -> Iterator[Diagnostic]:
        if node.module != "random" or node.level:
            return
        bad = [alias.name for alias in node.names
               if alias.name not in _RANDOM_OK]
        if bad:
            yield self.diagnostic(
                src.rel, node.lineno,
                f"importing {', '.join(bad)} from the random module binds "
                f"interpreter-global RNG state; import random.Random and "
                f"seed it instead")

    def _check_iteration(self, src: SourceFile,
                         node: ast.AST) -> Iterator[Diagnostic]:
        iter_node = node.iter  # type: ignore[attr-defined]
        is_set_literal = isinstance(iter_node, ast.Set)
        is_set_call = (isinstance(iter_node, ast.Call)
                       and isinstance(iter_node.func, ast.Name)
                       and iter_node.func.id in ("set", "frozenset"))
        if is_set_literal or is_set_call:
            yield self.diagnostic(
                src.rel, iter_node.lineno,
                "iteration order over a set depends on hash randomization; "
                "iterate a sorted() or a list/tuple instead")
