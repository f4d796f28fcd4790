"""Uniform serialization for configuration dataclasses.

Every configuration dataclass in the system (:class:`~repro.sim.config.
SystemConfig` and the component configs it embeds) mixes in
:class:`SerializableConfig`, which derives a ``to_dict``/``from_dict``
round-trip from the dataclass fields themselves:

* ``to_dict`` recurses into nested configs and returns plain
  JSON/TOML-representable primitives, so the same dictionary feeds file
  I/O (:mod:`repro.config.io`), dotted-path overrides
  (:mod:`repro.config.overrides`) and the job cache key
  (:meth:`repro.runner.job.SimJob.key`).
* ``from_dict`` is *strict*: unknown keys raise :class:`ConfigError`
  listing the accepted field names, and values of the wrong type are
  rejected rather than silently coerced (the only coercion is the
  standard numeric widening ``int -> float``).  Missing keys fall back
  to the dataclass defaults, so partial documents stay convenient.

``CONFIG_SCHEMA_VERSION`` names the on-disk layout of serialized
configs.  It is embedded in config files and folded into job cache keys,
so bump it whenever a field is renamed, removed, or changes meaning —
stale files then fail loudly and stale cache entries stop matching.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from types import MappingProxyType
from typing import Any, Dict, List, Mapping, Optional, Tuple, Type, TypeVar, Union, get_args, get_origin, get_type_hints

#: Version of the serialized configuration layout (see module docstring).
CONFIG_SCHEMA_VERSION = 1

C = TypeVar("C", bound="SerializableConfig")


#: Types whose values serialize as themselves.  Exact types only:
#: subclasses (an ``IntEnum``, say) take the general path.
PRIMITIVE_TYPES = frozenset({str, int, float, bool, type(None)})


class ConfigError(ValueError):
    """A configuration document does not match the config schema."""


@functools.lru_cache(maxsize=None)
def field_names(cls: type) -> Tuple[str, ...]:
    """The dataclass field names of ``cls`` in declaration order.

    Resolved once per class: ``to_dict`` runs for every job key, and
    ``dataclasses.fields`` rebuilds its list on every call.
    """
    return tuple(field.name
                 for field in dataclasses.fields(cls))  # type: ignore[arg-type]


@functools.lru_cache(maxsize=None)
def type_hints(cls: type) -> Mapping[str, Any]:
    """``get_type_hints(cls)``, resolved once per class (read-only)."""
    return MappingProxyType(get_type_hints(cls))


class SerializableConfig:
    """Mixin deriving a strict dict round-trip from dataclass fields."""

    def to_dict(self) -> Dict[str, Any]:
        """This config as plain nested primitives (JSON/TOML-ready).

        The result is canonical: two configs compare equal iff their
        ``to_dict`` outputs are equal, and ``from_dict`` inverts it
        exactly — the property the job cache key relies on.  Keys come
        in field declaration order.
        """
        out: Dict[str, Any] = {}
        for name in field_names(type(self)):
            value = getattr(self, name)
            out[name] = (value if type(value) in PRIMITIVE_TYPES
                         else _value_to_primitive(value))
        return out

    @classmethod
    def from_dict(cls: Type[C], data: Any, *, context: str = "") -> C:
        """Build a config from a ``to_dict``-shaped dictionary.

        ``context`` prefixes error messages with the dotted path of the
        sub-config being parsed (set automatically on recursion).
        Unknown keys, wrong types and missing required fields raise
        :class:`ConfigError`.
        """
        where = context or cls.__name__
        if not isinstance(data, dict):
            raise ConfigError(
                f"{where}: expected a table/object, got {type(data).__name__}")
        hints = type_hints(cls)
        fields = {f.name: f
                  for f in dataclasses.fields(cls)}  # type: ignore[arg-type]
        unknown = sorted(set(data) - set(fields))
        if unknown:
            raise ConfigError(
                f"{where}: unknown key(s) {unknown}; "
                f"accepted keys: {sorted(fields)}")
        kwargs: Dict[str, Any] = {}
        for name, value in data.items():
            path = f"{context}.{name}" if context else f"{cls.__name__}.{name}"
            kwargs[name] = coerce_value(value, hints[name], path)
        missing = [name for name, f in fields.items()
                   if name not in kwargs and not _has_default(f)]
        if missing:
            raise ConfigError(
                f"{where}: missing required key(s) {sorted(missing)}")
        return cls(**kwargs)


def _has_default(field: "dataclasses.Field[Any]") -> bool:
    return (field.default is not dataclasses.MISSING
            or field.default_factory is not dataclasses.MISSING)


def _value_to_primitive(value: Any) -> Any:
    if isinstance(value, SerializableConfig):
        return value.to_dict()
    if isinstance(value, (list, tuple)):
        return [_value_to_primitive(item) for item in value]
    if isinstance(value, dict):
        return {str(k): _value_to_primitive(v) for k, v in value.items()}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise ConfigError(
        f"cannot serialize {type(value).__name__!r} in a config document")


def coerce_value(value: Any, annotation: Any, path: str) -> Any:
    """Check (and minimally coerce) ``value`` against a field annotation.

    Strictness rules: ``bool`` is *not* accepted for int/float fields
    (it is a subclass of ``int`` but a config saying ``rob_size = true``
    is a mistake); ``int`` widens to ``float``, and floats must be
    finite (no inf or NaN); ``Optional[T]`` accepts ``None``; nested
    :class:`SerializableConfig` types recurse through ``from_dict``.
    """
    origin = get_origin(annotation)
    if origin is Union:
        args = get_args(annotation)
        if value is None:
            if type(None) in args:
                return None
            raise ConfigError(f"{path}: null is not allowed")
        non_none = [a for a in args if a is not type(None)]
        if len(non_none) == 1:
            return coerce_value(value, non_none[0], path)
        errors = []
        for arg in non_none:
            try:
                return coerce_value(value, arg, path)
            except ConfigError as exc:
                errors.append(str(exc))
        raise ConfigError("; ".join(errors))
    if origin in (list, tuple):
        if not isinstance(value, (list, tuple)):
            raise ConfigError(
                f"{path}: expected a list, got {type(value).__name__}")
        item_args = get_args(annotation)
        item_type = item_args[0] if item_args else Any
        if item_type is Ellipsis or item_type is Any:
            items = list(value)
        else:
            items = [coerce_value(item, item_type, f"{path}[{index}]")
                     for index, item in enumerate(value)]
        return tuple(items) if origin is tuple else items
    if isinstance(annotation, type) and issubclass(annotation, SerializableConfig):
        return annotation.from_dict(value, context=path)
    if annotation is bool:
        if isinstance(value, bool):
            return value
        raise ConfigError(
            f"{path}: expected a bool, got {type(value).__name__} {value!r}")
    if annotation is int:
        if isinstance(value, int) and not isinstance(value, bool):
            return value
        raise ConfigError(
            f"{path}: expected an int, got {type(value).__name__} {value!r}")
    if annotation is float:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            try:
                number = float(value)
            except OverflowError:  # an int beyond the float range
                number = math.inf
            if math.isfinite(number):
                return number
            raise ConfigError(
                f"{path}: expected a finite number, got {value!r}")
        raise ConfigError(
            f"{path}: expected a number, got {type(value).__name__} {value!r}")
    if annotation is str:
        if isinstance(value, str):
            return value
        raise ConfigError(
            f"{path}: expected a string, got {type(value).__name__} {value!r}")
    # Unconstrained (Any or exotic) annotations pass through untouched.
    return value


def config_field_paths(cls: Type[SerializableConfig],
                       prefix: str = "") -> List[Tuple[str, Any]]:
    """Every dotted override path of ``cls`` with its leaf annotation.

    Nested configs contribute their fields under ``<field>.``; used by
    the override layer for validation and by ``--help``-style listings.
    """
    hints = type_hints(cls)
    paths: List[Tuple[str, Any]] = []
    for name in field_names(cls):
        annotation = hints[name]
        dotted = f"{prefix}{name}"
        nested = _nested_config_type(annotation)
        if nested is not None:
            paths.extend(config_field_paths(nested, prefix=f"{dotted}."))
        else:
            paths.append((dotted, annotation))
    return paths


def _nested_config_type(annotation: Any) -> Optional[Type[SerializableConfig]]:
    """The SerializableConfig subclass named by ``annotation``, if any."""
    if isinstance(annotation, type) and issubclass(annotation, SerializableConfig):
        return annotation
    if get_origin(annotation) is Union:
        for arg in get_args(annotation):
            if isinstance(arg, type) and issubclass(arg, SerializableConfig):
                return arg
    return None
