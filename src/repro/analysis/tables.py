"""Plain-text table formatting for the benchmark harness output.

Every benchmark prints the rows/series of the paper figure it reproduces;
these helpers keep that output consistent and readable in pytest's
captured stdout.
"""

from __future__ import annotations

from typing import List, Mapping


def format_table(title: str, rows: Mapping[str, Mapping[str, float]],
                 value_format: str = "{:.3f}") -> str:
    """Render a nested mapping {row: {column: value}} as an aligned text table."""
    if not rows:
        return f"{title}\n(no data)"
    columns: List[str] = []
    for row in rows.values():
        for column in row:
            if column not in columns:
                columns.append(column)
    row_label_width = max(len(str(label)) for label in rows) + 2
    column_width = max([len(c) for c in columns] + [10]) + 2
    lines = [title, "-" * len(title)]
    header = " " * row_label_width + "".join(f"{c:>{column_width}}" for c in columns)
    lines.append(header)
    for label, row in rows.items():
        cells = []
        for column in columns:
            value = row.get(column)
            cells.append(" " * column_width if value is None
                         else f"{value_format.format(value):>{column_width}}")
        lines.append(f"{str(label):<{row_label_width}}" + "".join(cells))
    return "\n".join(lines)


def format_series(title: str, series: Mapping[str, float],
                  value_format: str = "{:.3f}") -> str:
    """Render a single {label: value} series as an aligned two-column table."""
    if not series:
        return f"{title}\n(no data)"
    label_width = max(len(str(label)) for label in series) + 2
    lines = [title, "-" * len(title)]
    for label, value in series.items():
        lines.append(f"{str(label):<{label_width}}{value_format.format(value)}")
    return "\n".join(lines)
