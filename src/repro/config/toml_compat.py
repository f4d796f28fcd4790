"""TOML reading and writing without third-party dependencies.

Reading is the standard-library :mod:`tomllib`; :func:`loads_toml`
only maps its decode error to :class:`TOMLError`.  The standard
library has no writer, so :func:`dumps_toml` emits a small, diffable
subset of TOML: tables ``[a.b]``, bare or quoted keys, basic strings,
integers, finite floats, booleans, arrays and inline tables.  Every
document it writes loads back equal under :func:`loads_toml`.
"""

from __future__ import annotations

import math
import tomllib
from typing import Any, Dict, List


class TOMLError(ValueError):
    """A document could not be parsed as TOML, or written to it."""


def loads_toml(text: str) -> Dict[str, Any]:
    """Parse a TOML document; a malformed one raises :class:`TOMLError`."""
    try:
        return tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise TOMLError(str(exc)) from None


# --------------------------------------------------------------------- #
# Writer
# --------------------------------------------------------------------- #

_BARE_KEY_CHARS = set("abcdefghijklmnopqrstuvwxyz"
                      "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_")

#: Basic-string escapes: backslash, quote, and every control character
#: TOML forbids raw (U+0000-U+001F and U+007F) as ``\n``, ``\t`` or
#: ``\uXXXX``.
_STRING_ESCAPES = {code: f"\\u{code:04X}" for code in [*range(0x20), 0x7F]}
_STRING_ESCAPES.update({ord("\\"): "\\\\", ord('"'): '\\"',
                        ord("\n"): "\\n", ord("\t"): "\\t"})


def dumps_toml(data: Dict[str, Any]) -> str:
    """Serialize a nested dict of primitives to TOML text.

    Scalar/array keys come first, then one ``[dotted.table]`` section
    per nested dict (depth-first, insertion order), so the output stays
    diffable.  Dicts nested inside arrays are emitted as inline tables.
    ``None`` and non-finite floats have no TOML form and raise
    :class:`TOMLError`.
    """
    lines: List[str] = []
    _emit_table(data, prefix="", lines=lines)
    return "\n".join(lines) + "\n"


def _emit_table(table: Dict[str, Any], prefix: str, lines: List[str]) -> None:
    scalars = [(k, v) for k, v in table.items() if not isinstance(v, dict)]
    subtables = [(k, v) for k, v in table.items() if isinstance(v, dict)]
    for key, value in scalars:
        lines.append(f"{_format_key(key)} = {_format_value(value)}")
    for key, value in subtables:
        dotted = f"{prefix}{_format_key(key)}"
        if lines and lines[-1] != "":
            lines.append("")
        lines.append(f"[{dotted}]")
        _emit_table(value, prefix=f"{dotted}.", lines=lines)


def _format_key(key: str) -> str:
    if key and set(key) <= _BARE_KEY_CHARS:
        return key
    return _quote(key)


def _quote(text: str) -> str:
    return '"' + text.translate(_STRING_ESCAPES) + '"'


def _format_value(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise TOMLError(f"cannot serialize non-finite float {value!r}; "
                            f"config values must be finite")
        return repr(value)  # finite reprs always carry "." or "e"
    if isinstance(value, str):
        return _quote(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_format_value(item) for item in value) + "]"
    if isinstance(value, dict):
        items = ", ".join(f"{_format_key(k)} = {_format_value(v)}"
                          for k, v in value.items())
        return "{" + items + "}"
    if value is None:
        raise TOMLError("TOML has no null; drop the key instead "
                        "(config documents omit None-valued fields)")
    raise TOMLError(f"cannot serialize {type(value).__name__!r} to TOML")
