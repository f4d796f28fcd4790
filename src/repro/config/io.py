"""Config file I/O: TOML/JSON documents wrapping a serialized config.

A config file is the ``to_dict`` form of a :class:`~repro.sim.config.
SystemConfig` under a ``[system]`` table, stamped with the schema
version::

    schema_version = 1

    [system]
    prefetcher = "pythia"
    offchip_predictor = "popet"

    [system.core]
    rob_size = 512
    ...

The format is chosen by file extension (``.toml`` / ``.json``; ``-``
and unknown extensions need an explicit ``fmt``).  Loading is strict:
a missing or newer ``schema_version`` and any unknown key fail with a
clear error.  ``None``-valued fields are dropped when writing TOML
(which has no null) — their dataclass defaults restore them on load,
so the round-trip is exact either way.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Optional, Type, TypeVar, Union, cast

from repro.config.schema import CONFIG_SCHEMA_VERSION, ConfigError, SerializableConfig
from repro.config.toml_compat import TOMLError, dumps_toml, loads_toml

if TYPE_CHECKING:  # import cycle: sim.config itself imports repro.config
    from repro.sim.config import SystemConfig

#: Formats accepted by the document reader/writer.
FORMATS = ("toml", "json")

C = TypeVar("C", bound=SerializableConfig)


def resolve_format(path: Union[str, Path], fmt: Optional[str] = None) -> str:
    """The document format for ``path`` (explicit ``fmt`` wins)."""
    if fmt is not None:
        if fmt not in FORMATS:
            raise ConfigError(
                f"unknown config format {fmt!r}; expected one of {list(FORMATS)}")
        return fmt
    suffix = Path(str(path)).suffix.lower()
    if suffix == ".toml":
        return "toml"
    if suffix == ".json":
        return "json"
    raise ConfigError(
        f"cannot infer config format from {str(path)!r}; "
        f"use a .toml/.json extension or pass an explicit format")


def load_document(path: Union[str, Path],
                  fmt: Optional[str] = None) -> Dict[str, Any]:
    """Read a TOML/JSON document (``-`` reads stdin) into a dict."""
    if str(path) == "-":
        text = sys.stdin.read()
        fmt = fmt or "toml"
    else:
        text = Path(path).read_text(encoding="utf-8")
    fmt = resolve_format(path, fmt) if str(path) != "-" else fmt
    try:
        if fmt == "toml":
            return loads_toml(text)
        return cast(Dict[str, Any], json.loads(text))
    except (TOMLError, json.JSONDecodeError) as exc:
        raise ConfigError(f"{path}: not valid {fmt}: {exc}") from None


def dump_document(data: Dict[str, Any], fmt: str) -> str:
    """Serialize a document dict to TOML or JSON text."""
    if fmt == "toml":
        return dumps_toml(_strip_none(data))
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _strip_none(value: Any) -> Any:
    """Drop None-valued keys (TOML has no null; defaults restore them)."""
    if isinstance(value, dict):
        return {k: _strip_none(v) for k, v in value.items() if v is not None}
    if isinstance(value, list):
        return [_strip_none(item) for item in value]
    return value


# --------------------------------------------------------------------- #
# SystemConfig files
# --------------------------------------------------------------------- #

def save_config(config: SerializableConfig, path: Union[str, Path],
                fmt: Optional[str] = None) -> None:
    """Write ``config`` as a schema-stamped TOML/JSON config file."""
    text = config_to_text(config, resolve_format(path, fmt))
    if str(path) == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def config_to_text(config: SerializableConfig, fmt: str) -> str:
    """The schema-stamped document text for ``config``."""
    return dump_document(
        {"schema_version": CONFIG_SCHEMA_VERSION, "system": config.to_dict()},
        fmt)


def load_config(path: Union[str, Path],
                fmt: Optional[str] = None) -> "SystemConfig":
    """Read a config file back into a :class:`SystemConfig`.

    The inverse of :func:`save_config`: checks the schema version, then
    rebuilds through the strict ``from_dict`` path (so unknown keys and
    type mismatches fail loudly with their dotted location).
    """
    from repro.sim.config import SystemConfig
    document = load_document(path, fmt)
    return config_from_document(document, where=str(path),
                                cls=SystemConfig)


def config_from_document(document: Dict[str, Any], where: str,
                         cls: Type[C]) -> C:
    """Validate the document envelope and parse its ``system`` table."""
    if not isinstance(document, dict):
        raise ConfigError(f"{where}: config document must be a table/object")
    version = document.get("schema_version")
    if version is None:
        raise ConfigError(
            f"{where}: missing schema_version (current is "
            f"{CONFIG_SCHEMA_VERSION})")
    if type(version) is not int or not 1 <= version <= CONFIG_SCHEMA_VERSION:
        raise ConfigError(
            f"{where}: unsupported schema_version {version!r} "
            f"(this build reads versions 1..{CONFIG_SCHEMA_VERSION})")
    unknown = sorted(set(document) - {"schema_version", "system"})
    if unknown:
        raise ConfigError(
            f"{where}: unknown top-level key(s) {unknown}; expected "
            f"'schema_version' and 'system'")
    if "system" not in document:
        raise ConfigError(f"{where}: missing [system] table")
    return cls.from_dict(document["system"], context="system")
