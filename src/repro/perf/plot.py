"""Terminal (ASCII) plots for ``python -m repro fig8|fig9|fig10``.

Log-log line plots good enough to eyeball the Fig. 8-10 shapes without a
plotting stack: each named series gets a marker; collisions show the
later series' marker.
"""

from __future__ import annotations

import math

__all__ = ["ascii_plot"]

_MARKERS = "*o+x#@"
WIDTH = 64  # plot columns
HEIGHT = 16  # plot rows
X_LABEL = "payload (bytes)"  # every figure plots against the message size


def ascii_plot(
    x_values: list[float],
    series: dict[str, list[float]],
    title: str = "",
    y_label: str = "",
) -> str:
    """Render a log-log multi-series line plot as text."""
    if not series:
        raise ValueError("no series to plot")
    width, height = WIDTH, HEIGHT
    xs = [math.log10(v) for v in x_values]
    all_y = [math.log10(v) for values in series.values() for v in values if v > 0]
    x_min, x_max = min(xs), max(xs)
    y_min, y_max = min(all_y), max(all_y)
    if y_max == y_min:
        y_max = y_min + 1.0
    if x_max == x_min:
        x_max = x_min + 1.0

    grid = [[" "] * width for _ in range(height)]
    for index, (name, values) in enumerate(series.items()):
        marker = _MARKERS[index % len(_MARKERS)]
        for x, y in zip(xs, (math.log10(v) for v in values)):
            column = round((x - x_min) / (x_max - x_min) * (width - 1))
            row = round((y - y_min) / (y_max - y_min) * (height - 1))
            grid[height - 1 - row][column] = marker

    lines = []
    if title:
        lines.append(title)
    legend = "   ".join(
        f"{_MARKERS[i % len(_MARKERS)]} {name}" for i, name in enumerate(series)
    )
    lines.append(legend)
    top_label = f"{10 ** y_max:.3g}"
    bottom_label = f"{10 ** y_min:.3g}"
    label_width = max(len(top_label), len(bottom_label))
    for row_index, row in enumerate(grid):
        if row_index == 0:
            prefix = top_label.rjust(label_width)
        elif row_index == height - 1:
            prefix = bottom_label.rjust(label_width)
        else:
            prefix = " " * label_width
        lines.append(f"{prefix} |{''.join(row)}|")
    left = f"{10 ** x_min:.3g}"
    right = f"{10 ** x_max:.3g}"
    axis = left + " " * (width - len(left) - len(right) + 2) + right
    lines.append(" " * label_width + "  " + axis + f"   {X_LABEL}")
    if y_label:
        lines.append(f"(y: {y_label})")
    return "\n".join(lines)
