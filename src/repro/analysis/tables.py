"""Plain-text table formatting for experiment output.

The experiment runners of :mod:`repro.analysis.experiments` return dict records;
:func:`format_records` prints them as one aligned table.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Sequence


def format_cell(value) -> str:
    """Render a table cell: floats get 4 significant digits, everything else ``str``."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        if value in (float("inf"), float("-inf")):
            return "inf" if value > 0 else "-inf"
        return f"{value:.4g}"
    return str(value)


def format_table(headers: Sequence[str], rows: Iterable[Sequence]) -> str:
    """ASCII table with column alignment (monospace friendly)."""
    str_rows: List[List[str]] = [[format_cell(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "-+-".join("-" * w for w in widths)
    lines = [" | ".join(h.ljust(w) for h, w in zip(headers, widths)), sep]
    for row in str_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_records(records: Sequence[Mapping[str, object]]) -> str:
    """Table from a list of dict records (columns = union of keys, insertion order)."""
    if not records:
        return "(no rows)"
    headers: List[str] = []
    for record in records:
        for key in record:
            if key not in headers:
                headers.append(key)
    rows = [[record.get(h, "") for h in headers] for record in records]
    return format_table(headers, rows)
