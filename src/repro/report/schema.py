"""The normalized figure-result schema behind the report subsystem.

Every paper figure/table, whatever its runner returns, normalizes into
one :class:`FigureResult`: an ordered list of series, an ordered list of
x positions, long-form ``(series, x, value)`` cells, derived summary
metrics (per-series mean, and geomean where the values are strictly
positive — the paper's speedup aggregation), and the runner's raw
payload in JSON-canonical form.  The same document feeds every renderer
(Markdown table, CSV, SVG chart), the ``report/`` artifact directory,
and ``tools/gen_experiments_index.py`` — so prose, tables and charts can
never drift from the numbers.

``to_dict``/``from_dict`` are strict in the same way the config schema
is (:mod:`repro.config.schema`): unknown keys, missing keys and schema
version mismatches raise :class:`ReportSchemaError` rather than being
silently tolerated, so a stale artifact fails loudly when re-read.

``REPORT_SCHEMA_VERSION`` names the on-disk layout of serialized figure
results; bump it whenever a field is renamed, removed, or changes
meaning.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

#: Version of the serialized figure-result layout (see module docstring).
REPORT_SCHEMA_VERSION = 1

#: A long-form data point: (series name, x label, value).
Cell = Tuple[str, str, float]


class ReportSchemaError(ValueError):
    """A figure-result document does not match the report schema."""


def canonical_payload(payload: Any) -> Any:
    """``payload`` reduced to strict JSON primitives.

    Exactly the transformation :func:`json.dumps` applies on the way to
    disk (string keys, ``sort_keys`` ordering, ``default=str`` for
    stray types), applied eagerly.  Both the report artifacts and
    ``repro sweep --figure ... --output`` serialize the *canonical*
    payload, so the two paths are byte-identical and a payload read
    back with :meth:`FigureResult.from_dict` compares equal to the one
    that was written — integer sweep axes (e.g. the Fig. 17 MTPS or
    threshold keys) become their JSON string forms once, up front,
    instead of drifting between the two code paths.
    """
    return json.loads(json.dumps(payload, sort_keys=True, default=str))


def x_label_of(key: Any) -> str:
    """The canonical string label of a payload key (JSON key semantics).

    Matches what ``json.dumps`` writes for a mapping key, so cell x
    labels always line up with the canonical payload: ``800 -> "800"``,
    ``3.0 -> "3.0"``, booleans lower-case, strings unchanged.
    """
    if isinstance(key, str):
        return key
    if isinstance(key, bool):
        return "true" if key else "false"
    if isinstance(key, float) and key.is_integer():
        # json.dumps writes float keys via float.__repr__ ("3.0").
        return repr(key)
    return str(key)


def _summaries(values: Sequence[float]) -> Dict[str, float]:
    """Per-series derived metrics: mean always, geomean when it exists."""
    summary: Dict[str, float] = {}
    if not values:
        return summary
    summary["mean"] = sum(values) / len(values)
    if all(value > 0 for value in values):
        summary["geomean"] = math.exp(
            sum(math.log(value) for value in values) / len(values))
    return summary


@dataclass
class FigureResult:
    """One paper figure/table as a normalized, serializable artifact.

    Built through :meth:`build` (which orders cells canonically and
    computes ``derived``), serialized through :meth:`to_dict` /
    :meth:`from_dict`.  ``payload`` is the figure runner's raw return
    value in JSON-canonical form — kept verbatim so the normalized view
    never loses information the runner emitted.
    """

    #: Figure identifier (``fig02`` ... ``fig22``, ``table3``, ``table6``).
    figure_id: str
    #: One-line description (the EXPERIMENTS.md "what it shows" text).
    title: str
    #: Chart form the SVG renderer draws: ``"bar"`` or ``"line"``.
    chart: str
    #: Axis captions for tables and charts.
    x_label: str
    y_label: str
    #: Ordered series names (first-appearance order from the payload).
    series: List[str] = field(default_factory=list)
    #: Ordered x labels (first-appearance order from the payload).
    x_values: List[str] = field(default_factory=list)
    #: Long-form data points, ordered by (series index, x index).
    cells: List[Cell] = field(default_factory=list)
    #: ``{"<series>.mean": ..., "<series>.geomean": ...}`` summaries.
    derived: Dict[str, float] = field(default_factory=dict)
    #: The runner's raw payload, JSON-canonical (see module docstring).
    payload: Any = None
    #: Series the SVG chart foregrounds (None = all).  Tables and CSV
    #: always carry every series; this only caps chart ink when a
    #: figure has more series than distinguishable colors (Fig. 11).
    chart_series: Optional[List[str]] = None

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def build(cls, figure_id: str, title: str, chart: str, x_label: str,
              y_label: str, cells: Sequence[Cell], payload: Any,
              chart_series: Optional[Sequence[str]] = None) -> "FigureResult":
        """A figure result with canonical ordering and derived metrics.

        ``cells`` may arrive in any order; series and x orders are taken
        from first appearance, and the stored cell list is re-sorted by
        (series, x) rank so equal data always produces an equal (and
        byte-identical, once serialized) document.
        """
        series: List[str] = []
        x_values: List[str] = []
        for name, x, _ in cells:
            if name not in series:
                series.append(name)
            if x not in x_values:
                x_values.append(x)
        series_rank = {name: rank for rank, name in enumerate(series)}
        x_rank = {x: rank for rank, x in enumerate(x_values)}
        ordered = sorted(((name, x, float(value)) for name, x, value in cells),
                         key=lambda cell: (series_rank[cell[0]], x_rank[cell[1]]))
        derived: Dict[str, float] = {}
        for name in series:
            values = [value for cell_series, _, value in ordered
                      if cell_series == name]
            for metric, value in _summaries(values).items():
                derived[f"{name}.{metric}"] = value
        return cls(figure_id=figure_id, title=title, chart=chart,
                   x_label=x_label, y_label=y_label, series=series,
                   x_values=x_values, cells=ordered, derived=derived,
                   payload=canonical_payload(payload),
                   chart_series=list(chart_series) if chart_series is not None
                   else None)

    # ------------------------------------------------------------------ #
    # Access helpers
    # ------------------------------------------------------------------ #

    def value(self, series: str, x: str) -> Optional[float]:
        """The cell value at (``series``, ``x``), or None where absent.

        Sparse figures are legal: Fig. 4's "ideal hermes alone" row has
        no per-prefetcher columns, so renderers must tolerate holes.
        """
        for cell_series, cell_x, value in self.cells:
            if cell_series == series and cell_x == x:
                return value
        return None

    def charted_series(self) -> List[str]:
        """The series the SVG renderer draws (``chart_series`` or all)."""
        return list(self.chart_series) if self.chart_series is not None \
            else list(self.series)

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #

    _FIELDS = ("schema_version", "figure", "title", "chart", "x_label",
               "y_label", "series", "x_values", "cells", "derived",
               "payload", "chart_series")

    def to_dict(self) -> Dict[str, Any]:
        """This figure result as plain JSON-ready primitives.

        Canonical: two results compare equal iff their ``to_dict``
        outputs are equal, and :meth:`from_dict` inverts it exactly.
        """
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "figure": self.figure_id,
            "title": self.title,
            "chart": self.chart,
            "x_label": self.x_label,
            "y_label": self.y_label,
            "series": list(self.series),
            "x_values": list(self.x_values),
            "cells": [[series, x, value] for series, x, value in self.cells],
            "derived": dict(self.derived),
            "payload": self.payload,
            "chart_series": (list(self.chart_series)
                             if self.chart_series is not None else None),
        }

    @classmethod
    def from_dict(cls, document: Mapping[str, Any]) -> "FigureResult":
        """Strictly reconstruct a figure result from :meth:`to_dict` output.

        Unknown keys, missing keys, a schema-version mismatch, or
        malformed cells raise :class:`ReportSchemaError`.
        """
        if not isinstance(document, Mapping):
            raise ReportSchemaError(
                f"figure-result document must be a mapping, "
                f"got {type(document).__name__}")
        unknown = sorted(set(document) - set(cls._FIELDS))
        if unknown:
            raise ReportSchemaError(
                f"unknown figure-result keys {unknown}; "
                f"accepted: {sorted(cls._FIELDS)}")
        missing = sorted(set(cls._FIELDS) - set(document))
        if missing:
            raise ReportSchemaError(f"missing figure-result keys {missing}")
        version = document["schema_version"]
        if version != REPORT_SCHEMA_VERSION:
            raise ReportSchemaError(
                f"report schema version mismatch: document says {version!r}, "
                f"this code reads {REPORT_SCHEMA_VERSION}")
        for key in ("figure", "title", "chart", "x_label", "y_label"):
            if not isinstance(document[key], str):
                raise ReportSchemaError(
                    f"figure-result key {key!r} must be a string, "
                    f"got {type(document[key]).__name__}")
        cells: List[Cell] = []
        for raw in document["cells"]:
            if (not isinstance(raw, (list, tuple)) or len(raw) != 3
                    or not isinstance(raw[0], str)
                    or not isinstance(raw[1], str)
                    or isinstance(raw[2], bool)
                    or not isinstance(raw[2], (int, float))):
                raise ReportSchemaError(
                    f"malformed cell {raw!r}: expected [series, x, value]")
            cells.append((raw[0], raw[1], float(raw[2])))
        chart_series = document["chart_series"]
        if chart_series is not None:
            chart_series = [str(name) for name in chart_series]
        return cls(figure_id=document["figure"], title=document["title"],
                   chart=document["chart"], x_label=document["x_label"],
                   y_label=document["y_label"],
                   series=[str(name) for name in document["series"]],
                   x_values=[str(x) for x in document["x_values"]],
                   cells=cells,
                   derived={str(key): float(value)
                            for key, value in document["derived"].items()},
                   payload=document["payload"],
                   chart_series=chart_series)

    def to_json(self) -> str:
        """The document as the pretty, sorted JSON the report writes."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True,
                          default=str) + "\n"
