"""Plain-text reporting helpers for the CLI and the benchmark harness.

Table 1 and Figs. 8-10 (:mod:`repro.perf.figures`, printed by ``python
-m repro table1|fig8|fig9|fig10``) and every bench that prints a table
go through these formatters (transcripts are in EXPERIMENTS.md).
"""

from __future__ import annotations

__all__ = ["format_table", "format_size", "format_seconds", "format_rate", "series_table"]


def format_size(num_bytes: float) -> str:
    for unit, scale in (("GB", 1e9), ("MB", 1e6), ("KB", 1e3)):
        if num_bytes >= scale:
            return f"{num_bytes / scale:.4g} {unit}"
    return f"{num_bytes:.0f} B"


def format_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3g} s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.3g} ms"
    return f"{seconds * 1e6:.3g} µs"


def format_rate(per_second: float) -> str:
    if per_second >= 1.0:
        return f"{per_second:.4g}/s"
    return f"{per_second:.3g}/s"


def format_table(headers: list[str], rows: list[list[str]], title: str = "") -> str:
    widths = [
        max(len(str(headers[i])), *(len(str(row[i])) for row in rows)) if rows else len(headers[i])
        for i in range(len(headers))
    ]

    def line(cells):
        return "  ".join(str(cell).rjust(width) for cell, width in zip(cells, widths))

    parts = []
    if title:
        parts.append(title)
    parts.append(line(headers))
    parts.append(line(["-" * width for width in widths]))
    parts.extend(line(row) for row in rows)
    return "\n".join(parts)


def series_table(
    sizes: list[int],
    columns: dict[str, list[float]],
    formatters: dict[str, object] | None = None,
    title: str = "",
) -> str:
    """A table keyed by payload size with one column per named series."""
    formatters = formatters or {}
    headers = ["payload"] + list(columns)
    rows = []
    for index, size in enumerate(sizes):
        row = [format_size(size)]
        for name, series in columns.items():
            fmt = formatters.get(name, format_seconds)
            row.append(fmt(series[index]) if callable(fmt) else f"{series[index]:{fmt}}")
        rows.append(row)
    return format_table(headers, rows, title=title)
