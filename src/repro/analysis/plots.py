"""ASCII scatter/line rendering for trade-off curves.

The benches and examples print figures as text; this renderer gives the
speed/ratio curves of Figs 1, 10-12 a visual form without any plotting
dependency.
"""

from __future__ import annotations

import math
from typing import Dict, Sequence, Tuple

Point = Tuple[float, float]

_MARKERS = "oxv*#@+%"


def ascii_scatter(
    series: Dict[str, Sequence[Point]],
    width: int = 60,
    height: int = 16,
    x_label: str = "x",
    y_label: str = "y",
    log_x: bool = False,
) -> str:
    """Render named point series on one text grid.

    Each series gets a marker from ``oxv*``...; axes are annotated with the
    data ranges. ``log_x`` puts the x axis on a log10 scale (speed axes
    span decades).
    """
    points = [(x, y) for pts in series.values() for x, y in pts]
    if not points:
        return "(no data)"

    def x_of(value: float) -> float:
        return math.log10(max(value, 1e-12)) if log_x else value

    xs = [x_of(x) for x, __ in points]
    ys = [y for __, y in points]
    x_low, x_high = min(xs), max(xs)
    y_low, y_high = min(ys), max(ys)
    x_span = (x_high - x_low) or 1.0
    y_span = (y_high - y_low) or 1.0

    grid = [[" "] * width for __ in range(height)]
    for index, (name, pts) in enumerate(series.items()):
        marker = _MARKERS[index % len(_MARKERS)]
        for x, y in pts:
            col = int((x_of(x) - x_low) / x_span * (width - 1))
            row = height - 1 - int((y - y_low) / y_span * (height - 1))
            grid[row][col] = marker

    lines = [f"{y_label} [{y_low:.3g} .. {y_high:.3g}]"]
    for row in grid:
        lines.append("|" + "".join(row))
    lines.append("+" + "-" * width)
    x_range = (
        f"[{10 ** x_low:.3g} .. {10 ** x_high:.3g}] (log)"
        if log_x
        else f"[{x_low:.3g} .. {x_high:.3g}]"
    )
    lines.append(f" {x_label} {x_range}")
    legend = "  ".join(
        f"{_MARKERS[i % len(_MARKERS)]}={name}" for i, name in enumerate(series)
    )
    lines.append(f" legend: {legend}")
    return "\n".join(lines)
