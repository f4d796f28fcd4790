"""Dotted-path configuration overrides.

One override layer serves every consumer: Python code
(``apply_overrides(cfg, {"core.rob_size": 512})``), experiment-spec
axes (:mod:`repro.runner.spec`) and the CLI's ``--set key=value`` flag
(:func:`parse_override` turns the flag's string value into a typed
one).  Overrides are applied functionally — the input config is never
mutated; every touched level is rebuilt with :func:`dataclasses.replace`
— and unknown paths raise :class:`OverridePathError` (a ``KeyError``)
listing the keys that *are* accepted at the failing level, so a typo in
a sweep axis fails before any simulation runs.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Iterable, Mapping, Optional, Tuple

from repro.config.schema import (
    ConfigError,
    SerializableConfig,
    _nested_config_type,
    coerce_value,
    field_names,
    type_hints,
)


class OverridePathError(KeyError):
    """An override names a path no config field matches.

    A ``KeyError`` subclass so path typos read as lookup failures, but
    distinct from arbitrary ``KeyError``s so callers (the CLI) can
    surface these cleanly without masking unrelated bugs.
    """

    def __str__(self) -> str:
        return self.args[0]


def apply_overrides(config: SerializableConfig,
                    overrides: Mapping[str, Any]) -> Any:
    """Return a copy of ``config`` with the dotted-path overrides applied.

    Keys are dotted field paths (``"core.rob_size"``,
    ``"hierarchy.llc.latency"``, ``"prefetcher"``); values are checked
    against the target field's annotation exactly as
    :meth:`~repro.config.schema.SerializableConfig.from_dict` would.
    String values are *not* re-parsed here — CLI callers go through
    :func:`parse_override` first.
    """
    # Build a nested {field: {...}} tree so sibling overrides under the
    # same sub-config are applied in one replace() per level.
    tree: Dict[str, Any] = {}
    for path, value in overrides.items():
        parts = path.split(".")
        node = tree
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise OverridePathError(
                    f"override {path!r} descends into {part!r}, which "
                    f"another override already set to a scalar")
        if isinstance(node.get(parts[-1]), dict):
            raise OverridePathError(
                f"override {path!r} sets a scalar where other overrides "
                f"descend into a sub-config")
        node[parts[-1]] = value
    return _apply_tree(config, tree, prefix="")


def _apply_tree(config: SerializableConfig, tree: Mapping[str, Any],
                prefix: str) -> Any:
    hints = type_hints(type(config))
    fields = field_names(type(config))
    changes: Dict[str, Any] = {}
    for name, value in tree.items():
        dotted = f"{prefix}{name}"
        if name not in fields:
            raise OverridePathError(
                f"unknown config key {dotted!r}; accepted keys at this "
                f"level: {sorted(fields)}")
        annotation = hints[name]
        nested_type = _nested_config_type(annotation)
        if isinstance(value, dict) and nested_type is not None:
            current = getattr(config, name)
            if current is None:
                current = nested_type()
            changes[name] = _apply_tree(current, value, prefix=f"{dotted}.")
        elif isinstance(value, dict):
            raise OverridePathError(
                f"config key {dotted!r} is a scalar field; "
                f"it cannot be descended into")
        else:
            if nested_type is not None:
                raise OverridePathError(
                    f"config key {dotted!r} is a {nested_type.__name__} "
                    f"sub-config; set its fields (e.g. {dotted}.<field>) "
                    f"instead of assigning a scalar")
            try:
                changes[name] = coerce_value(value, annotation, dotted)
            except ConfigError as exc:
                raise ConfigError(f"override {exc}") from None
    return dataclasses.replace(config, **changes)  # type: ignore[type-var]


def parse_override(token: str) -> Tuple[str, Any]:
    """Parse one CLI ``--set key=value`` token into ``(path, value)``.

    The value grammar mirrors TOML scalars: ``true``/``false`` are
    booleans, integer and float literals are numbers, single- or
    double-quoted text is a string, ``null`` is ``None``, and anything
    else is taken as a bare string (so ``--set prefetcher=pythia`` —
    and ``--set prefetcher=none``, a registered prefetcher *name* —
    need no quoting).
    """
    if "=" not in token:
        raise ValueError(
            f"override {token!r} is not of the form key=value "
            f"(e.g. --set core.rob_size=512)")
    path, _, raw = token.partition("=")
    path = path.strip()
    if not path:
        raise ValueError(f"override {token!r} has an empty key")
    return path, parse_override_value(raw.strip())


def parse_override_value(raw: str) -> Any:
    """The typed value of one override string (see :func:`parse_override`)."""
    lowered = raw.lower()
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    if lowered == "null":
        # "null" (not "none") clears Optional fields: "none" must stay
        # a plain string because it is a registered prefetcher name.
        return None
    if len(raw) >= 2 and raw[0] == raw[-1] and raw[0] in ("'", '"'):
        return raw[1:-1]
    try:
        return int(raw, 0)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    return raw


def parse_override_tokens(tokens: Optional[Iterable[str]]) -> Dict[str, Any]:
    """Fold repeated ``--set`` tokens into one override mapping (last wins)."""
    overrides: Dict[str, Any] = {}
    for token in tokens or ():
        path, value = parse_override(token)
        overrides[path] = value
    return overrides
