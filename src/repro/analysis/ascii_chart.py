"""Minimal text charts for benchmark reports.

The reproduction is terminal-first: the figures the paper plots are
rendered here as aligned text charts (horizontal bars and multi-series
line grids) so `benchmarks/results/*.txt` can show the *shape* of each
figure, not only its numbers.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["bar_chart", "series_chart"]


def bar_chart(
    labels: Sequence[str],
    values: Sequence[float],
    *,
    width: int = 50,
    unit: str = "",
    title: str | None = None,
) -> str:
    """Horizontal bar chart: one row per (label, value)."""
    if len(labels) != len(values):
        raise ValueError("labels and values must have equal length")
    lines: list[str] = []
    if title:
        lines.append(title)
    if not values:
        return "\n".join(lines + ["(no data)"])
    peak = max(max(values), 1e-12)
    label_width = max(len(label) for label in labels)
    for label, value in zip(labels, values):
        bar = "#" * max(1 if value > 0 else 0, round(value / peak * width))
        lines.append(f"{label.ljust(label_width)} |{bar.ljust(width)}| "
                     f"{value:g}{unit}")
    return "\n".join(lines)


def series_chart(
    x_values: Sequence[float],
    series: dict[str, Sequence[float]],
    *,
    height: int = 12,
    title: str | None = None,
) -> str:
    """Plot several y-series over shared x positions on a character grid.

    Each series is drawn with its own marker (first letter of its name);
    collisions show ``*``.
    """
    if not series:
        raise ValueError("need at least one series")
    for name, ys in series.items():
        if len(ys) != len(x_values):
            raise ValueError(f"series {name!r} length mismatch")
    columns = len(x_values)
    peak = max((max(ys) for ys in series.values()), default=0.0)
    peak = max(peak, 1e-12)
    grid = [[" "] * columns for _ in range(height)]
    markers = {}
    used = set()
    for name in series:
        marker = name[0].upper()
        while marker in used:
            marker = chr(ord(marker) + 1)
        used.add(marker)
        markers[name] = marker
    for name, ys in series.items():
        for col, y in enumerate(ys):
            row = height - 1 - min(height - 1, round(y / peak * (height - 1)))
            cell = grid[row][col]
            grid[row][col] = markers[name] if cell == " " else "*"
    lines: list[str] = []
    if title:
        lines.append(title)
    lines.append(f"y max = {peak:g}")
    for row in grid:
        lines.append("|" + " ".join(row))
    lines.append("+" + "-" * (2 * columns - 1))
    lines.append(" " + " ".join(_fit(x) for x in x_values))
    lines.append("legend: " + ", ".join(
        f"{marker}={name}" for name, marker in markers.items()
    ))
    return "\n".join(lines)


def _fit(x: float) -> str:
    text = f"{x:g}"
    return text[0] if len(text) > 1 else text
