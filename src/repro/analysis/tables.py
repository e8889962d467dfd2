"""Fixed-width table rendering for terminal reports.

Used to print the Table 1/2 reproductions, the Figure 12 data grids,
and the EXPERIMENTS.md paper-versus-measured records.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping


def _format_value(value, float_digits: int) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        return f"{value:.{float_digits}f}"
    return str(value)


def format_table(
    rows: Iterable[Mapping[str, object]],
    columns: list[str] | None = None,
    float_digits: int = 3,
    indent: str = "",
) -> str:
    """Align a list of dict rows into a text table.

    ``columns`` selects and orders the columns (default: keys of the
    first row). Numeric cells are right-aligned.
    """
    rows = list(rows)
    if not rows:
        return f"{indent}(empty table)"
    if columns is None:
        columns = list(rows[0].keys())

    cells = [
        {col: _format_value(row.get(col, ""), float_digits) for col in columns}
        for row in rows
    ]
    widths = {
        col: max(len(col), *(len(row[col]) for row in cells)) for col in columns
    }
    numeric = {
        col: all(
            isinstance(row.get(col), (int, float)) and not isinstance(row.get(col), bool)
            for row in rows
        )
        for col in columns
    }

    def render_row(row: Mapping[str, str]) -> str:
        parts = []
        for col in columns:
            text = row[col]
            parts.append(text.rjust(widths[col]) if numeric[col] else text.ljust(widths[col]))
        return indent + "  ".join(parts).rstrip()

    header = indent + "  ".join(col.ljust(widths[col]) for col in columns).rstrip()
    separator = indent + "  ".join("-" * widths[col] for col in columns)
    return "\n".join([header, separator] + [render_row(row) for row in cells])


def csv_cell(value: object) -> str:
    """One CSV field, quoted per RFC 4180 when it holds a comma, quote
    or newline."""
    text = str(value)
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def rows_to_csv(rows: Iterable[Mapping[str, object]], columns: list[str] | None = None) -> str:
    """Serialise dict rows as CSV text (no external dependency)."""
    rows = list(rows)
    if not rows:
        return ""
    if columns is None:
        columns = list(rows[0].keys())
    lines = [",".join(csv_cell(col) for col in columns)]
    for row in rows:
        lines.append(",".join(csv_cell(row.get(col, "")) for col in columns))
    return "\n".join(lines) + "\n"
