"""Result aggregation and table printing for the figure benchmarks."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def geomean(values) -> float:
    """Geometric mean, ignoring non-finite entries (OOM cases)."""
    arr = np.asarray(list(values), dtype=np.float64)
    arr = arr[np.isfinite(arr) & (arr > 0)]
    if arr.size == 0:
        return float("nan")
    return float(np.exp(np.mean(np.log(arr))))


@dataclass
class BenchTable:
    """Accumulates rows and prints an aligned table in the bench output.

    Benchmarks print the same rows/series the paper's figure or table
    reports, with a ``paper`` column where the publication states a value.
    """

    title: str
    columns: list[str]
    rows: list[list[str]] = field(default_factory=list)

    def add_row(self, *cells) -> None:
        if len(cells) != len(self.columns):
            raise ValueError(
                f"expected {len(self.columns)} cells, got {len(cells)}"
            )
        self.rows.append([self._fmt(c) for c in cells])

    @staticmethod
    def _fmt(cell) -> str:
        if isinstance(cell, float):
            if cell != cell:  # NaN
                return "-"
            if cell == float("inf"):
                return "OOM"
            if abs(cell) >= 1000 or (abs(cell) < 0.01 and cell != 0):
                return f"{cell:.3g}"
            return f"{cell:.3f}"
        return str(cell)

    def render(self) -> str:
        widths = [
            max(len(self.columns[i]), *(len(r[i]) for r in self.rows), 1)
            if self.rows
            else len(self.columns[i])
            for i in range(len(self.columns))
        ]
        lines = [f"\n=== {self.title} ==="]
        lines.append("  ".join(c.ljust(w) for c, w in zip(self.columns, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for r in self.rows:
            lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
        return "\n".join(lines)

    def emit(self) -> None:
        print(self.render())
