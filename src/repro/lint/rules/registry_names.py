"""RL003 — component-name strings must resolve against the registries.

Specs, CLI defaults and docs refer to prefetchers, off-chip predictors,
the engine, trace formats and report renderers *by name*.  The registries
fail loudly at run time, but a typo in an example spec only explodes
when somebody finally runs it — long after the commit that broke it.
This rule resolves every component-name string it can find statically:

* TOML documents under ``examples/specs/`` and ``tests/`` — any
  ``prefetcher`` / ``offchip_predictor`` / ``engine`` / ``format`` /
  ``renderer`` key, wherever it nests (``[base]``, axis points,
  fixtures);
* the live defaults the CLI and config layer bake in
  (``SystemConfig()`` field defaults, the CLI's stdin trace format).

Lookups go against the real registries, so a rename that misses a spec
fails the lint the moment it happens.  ``"none"`` stays accepted for
``offchip_predictor`` — the config layer treats it as "no predictor".
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.lint.base import LintRule, Project, SourceFile, register_rule
from repro.lint.diagnostics import Diagnostic

#: Mapping key -> (registry kind, loader of valid names).  Loaders run
#: lazily so a partially-importable tree degrades to fewer checks, not
#: a crash.
_REGISTRY_KEYS: Dict[str, str] = {
    "prefetcher": "prefetcher",
    "offchip_predictor": "off-chip predictor",
    "engine": "engine",
    "format": "trace format",
    "renderer": "report renderer",
}


def _registry_names() -> Dict[str, Optional[List[str]]]:
    """Valid names per component kind (None when a registry won't load)."""
    loaders: Dict[str, Callable[[], List[str]]] = {}

    def prefetchers() -> List[str]:
        from repro.prefetchers.factory import available_prefetchers
        return available_prefetchers()

    def predictors() -> List[str]:
        from repro.offchip.factory import available_predictors
        return available_predictors() + ["none"]

    def engines() -> List[str]:
        from repro.engine import ENGINES
        return list(ENGINES)

    def formats() -> List[str]:
        from repro.workloads.formats import format_names
        return format_names()

    def renderers() -> List[str]:
        from repro.report.renderers import renderer_names
        return renderer_names()

    loaders = {"prefetcher": prefetchers, "offchip_predictor": predictors,
               "engine": engines, "format": formats, "renderer": renderers}
    names: Dict[str, Optional[List[str]]] = {}
    for key, loader in loaders.items():
        try:
            names[key] = loader()
        except Exception:  # registry unavailable -> skip its checks
            names[key] = None
    return names


def _walk_strings(doc: Any) -> Iterator[Tuple[str, str]]:
    """Every ``(key, value)`` pair with a string value, at any depth."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            if isinstance(value, str):
                yield key, value
            else:
                yield from _walk_strings(value)
    elif isinstance(doc, (list, tuple)):
        for item in doc:
            yield from _walk_strings(item)


@register_rule
class RegistryResolutionRule(LintRule):
    """Component-name strings must name a registered component."""

    rule_id = "RL003"
    title = "component names in specs/defaults must resolve"
    scope = "project"

    def check_project(self, project: Project) -> Iterator[Diagnostic]:
        """Resolve spec documents, then the baked-in defaults."""
        names = _registry_names()
        for spec in project.spec_files:
            yield from self._check_spec(spec, names)
        yield from self._check_defaults(project, names)

    def _check_spec(self, spec: SourceFile,
                    names: Dict[str, Optional[List[str]]]
                    ) -> Iterator[Diagnostic]:
        from repro.config.toml_compat import TOMLError, loads_toml
        try:
            doc = loads_toml(spec.source)
        except TOMLError:
            return  # not this rule's job; the config loader reports it
        for key, value in _walk_strings(doc):
            kind = _REGISTRY_KEYS.get(key)
            if kind is None:
                continue
            valid = names.get(key)
            if valid is None or value.lower() in (n.lower() for n in valid):
                continue
            yield self.diagnostic(
                spec.rel, spec.find_line(value),
                f"unknown {kind} {value!r} (key {key!r}); registered: "
                f"{', '.join(sorted(valid))}")

    def _check_defaults(self, project: Project,
                        names: Dict[str, Optional[List[str]]]
                        ) -> Iterator[Diagnostic]:
        checks: List[Tuple[str, str, str, str]] = []
        try:
            from repro.sim.config import SystemConfig
            cfg = SystemConfig()
            checks.append(("prefetcher", cfg.prefetcher,
                           "src/repro/sim/config.py", "prefetcher"))
            checks.append(("engine", cfg.engine,
                           "src/repro/sim/config.py", "engine"))
            if cfg.offchip_predictor is not None:
                checks.append(("offchip_predictor", cfg.offchip_predictor,
                               "src/repro/sim/config.py",
                               "offchip_predictor"))
        except Exception:
            pass
        try:
            from repro.cli.main import STDIO_DEFAULT_FORMAT
            checks.append(("format", STDIO_DEFAULT_FORMAT,
                           "src/repro/cli/main.py", "STDIO_DEFAULT_FORMAT"))
        except Exception:
            pass
        file_map = project.file_map()
        for key, value, rel, needle in checks:
            valid = names.get(key)
            if valid is None or value.lower() in (n.lower() for n in valid):
                continue
            src = file_map.get(rel)
            line = src.find_line(needle) if src is not None else 1
            yield self.diagnostic(
                rel, line,
                f"default {_REGISTRY_KEYS[key]} {value!r} does not resolve; "
                f"registered: {', '.join(sorted(valid))}")
