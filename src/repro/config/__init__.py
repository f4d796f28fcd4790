"""Declarative configuration: serialization, overrides and file I/O.

This package makes every configuration dataclass first-class *data*:

* :mod:`repro.config.schema` — the :class:`SerializableConfig` mixin
  giving each config a strict ``to_dict``/``from_dict`` round-trip
  under ``CONFIG_SCHEMA_VERSION``.
* :mod:`repro.config.overrides` — dotted-path overrides
  (``apply_overrides(cfg, {"core.rob_size": 512})``) shared by Python
  callers, experiment-spec axes and the CLI's ``--set`` flag.
* :mod:`repro.config.io` — TOML/JSON config files
  (``load_config``/``save_config``) with schema-version stamping.
* :mod:`repro.config.toml_compat` — TOML reading through the stdlib
  :mod:`tomllib` and a dependency-free writer.

See DESIGN.md (config schema & experiment specs) for the format
reference, and :mod:`repro.api` for the facade that re-exports the
public pieces.
"""

from repro.config.io import (
    FORMATS,
    config_to_text,
    dump_document,
    load_config,
    load_document,
    resolve_format,
    save_config,
)
from repro.config.overrides import (
    OverridePathError,
    apply_overrides,
    parse_override,
    parse_override_tokens,
    parse_override_value,
)
from repro.config.schema import (
    CONFIG_SCHEMA_VERSION,
    ConfigError,
    SerializableConfig,
    config_field_paths,
)
from repro.config.toml_compat import dumps_toml, loads_toml

__all__ = [
    "CONFIG_SCHEMA_VERSION",
    "ConfigError",
    "SerializableConfig",
    "config_field_paths",
    "OverridePathError",
    "apply_overrides",
    "parse_override",
    "parse_override_tokens",
    "parse_override_value",
    "load_config",
    "save_config",
    "config_to_text",
    "load_document",
    "dump_document",
    "resolve_format",
    "FORMATS",
    "dumps_toml",
    "loads_toml",
]
