"""Terminal scatter/bar rendering for the figure benchmarks.

The paper's Figures 7 and 9 are log-log scatters; rendering them as ASCII
in the benchmark output makes the *shape* reviewable without a plotting
stack (none is available offline).
"""

from __future__ import annotations

import math

import numpy as np


def scatter(
    x,
    y,
    width: int = 64,
    height: int = 16,
    logx: bool = True,
    logy: bool = True,
    marker: str = "o",
    hline: float | None = None,
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
) -> str:
    """Render a scatter plot as text.

    ``hline`` draws a horizontal reference line (e.g. speedup = 1.0).
    """
    x = np.asarray(list(x), dtype=np.float64)
    y = np.asarray(list(y), dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"x and y must align, got {x.shape} vs {y.shape}")
    ok = np.isfinite(x) & np.isfinite(y) & (x > 0 if logx else True) & (y > 0 if logy else True)
    x, y = x[ok], y[ok]
    if x.size == 0:
        return f"{title}\n(no finite points)"
    fx = np.log10(x) if logx else x
    fy = np.log10(y) if logy else y
    values_y = [float(fy.min()), float(fy.max())]
    if hline is not None and (not logy or hline > 0):
        values_y.append(math.log10(hline) if logy else hline)
    x0, x1 = float(fx.min()), float(fx.max())
    y0, y1 = min(values_y), max(values_y)
    x1 += (x1 - x0 or 1.0) * 0.02
    y1 += (y1 - y0 or 1.0) * 0.02
    sx = (width - 1) / (x1 - x0 or 1.0)
    sy = (height - 1) / (y1 - y0 or 1.0)

    grid = [[" "] * width for _ in range(height)]
    if hline is not None and (not logy or hline > 0):
        h = math.log10(hline) if logy else hline
        r = height - 1 - int(round((h - y0) * sy))
        if 0 <= r < height:
            grid[r] = ["-"] * width
    for xi, yi in zip(fx, fy):
        c = int(round((xi - x0) * sx))
        r = height - 1 - int(round((yi - y0) * sy))
        if 0 <= r < height and 0 <= c < width:
            grid[r][c] = marker

    top = f"{y.max():.3g}"
    bottom = f"{y.min():.3g}"
    pad = max(len(top), len(bottom))
    lines = []
    if title:
        lines.append(title)
    for i, row in enumerate(grid):
        label = top if i == 0 else (bottom if i == height - 1 else "")
        lines.append(f"{label:>{pad}s} |" + "".join(row))
    lines.append(" " * pad + " +" + "-" * width)
    left = f"{x.min():.3g}"
    right = f"{x.max():.3g}"
    gap = max(1, width - len(left) - len(right))
    lines.append(" " * (pad + 2) + left + " " * gap + right)
    if xlabel or ylabel:
        lines.append(" " * (pad + 2) + f"x: {xlabel}   y: {ylabel}")
    return "\n".join(lines)


def bars(labels, values, width: int = 48, title: str = "") -> str:
    """Horizontal bar chart (linear scale)."""
    labels = [str(l) for l in labels]
    vals = np.asarray(list(values), dtype=np.float64)
    if len(labels) != vals.size:
        raise ValueError("labels and values must align")
    if vals.size == 0:
        return f"{title}\n(no data)"
    vmax = float(np.nanmax(vals))
    lw = max(len(l) for l in labels)
    lines = [title] if title else []
    for label, v in zip(labels, vals):
        if not np.isfinite(v):
            lines.append(f"{label:>{lw}s} | OOM")
            continue
        n = 0 if vmax <= 0 else int(round(v / vmax * width))
        lines.append(f"{label:>{lw}s} |{'#' * n} {v:.3g}")
    return "\n".join(lines)
