"""Plain-text table/series rendering for experiment output.

The benchmark harness reproduces the paper's figures as printed rows
and series; these helpers keep that formatting in one place.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence


def format_table(headers: Sequence[str],
                 rows: Iterable[Sequence],
                 title: Optional[str] = None) -> str:
    """A fixed-width text table."""
    str_rows: List[List[str]] = [[_fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_series(name: str, points: Iterable[tuple],
                  x_label: str = "x", y_label: str = "y") -> str:
    """A named (x, y) series as aligned text."""
    lines = [f"{name}  [{x_label} -> {y_label}]"]
    for x, y in points:
        lines.append(f"  {_fmt(x):>12}  {_fmt(y)}")
    return "\n".join(lines)


def thin(points: list, n: int) -> list:
    """About ``n`` evenly strided points of a series, ending on its last."""
    if len(points) <= n:
        return points
    sampled = points[::max(1, len(points) // n)]
    if sampled[-1] != points[-1]:
        sampled.append(points[-1])
    return sampled


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:.0f}"
        if abs(value) >= 1:
            return f"{value:.1f}"
        return f"{value:.4g}"
    return str(value)
