"""Figure series extraction.

Each paper figure reduces to one or more (x, y) series; benches print them
and exporters write them to CSV so they can be plotted with any tool.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.util.stats import Ecdf


@dataclass(frozen=True)
class FigureSeries:
    """One named line/bar series of a figure."""

    name: str
    points: List[Tuple[float, float]]

    @property
    def n(self) -> int:
        return len(self.points)

    def summary(self, *, max_points: int = 8) -> str:
        """A compact printable summary (endpoints plus key interior points)."""
        if not self.points:
            return f"{self.name}: (empty)"
        if len(self.points) <= max_points:
            shown = self.points
        else:
            step = (len(self.points) - 1) / (max_points - 1)
            shown = [self.points[round(i * step)] for i in range(max_points)]
        body = ", ".join(f"({x:.1f}, {y:.3f})" for x, y in shown)
        return f"{self.name} [{len(self.points)} pts]: {body}"


def figure_series(name: str, source) -> FigureSeries:
    """Build a series from an Ecdf or a (x, y) sequence."""
    if isinstance(source, Ecdf):
        return FigureSeries(name=name, points=source.series())
    return FigureSeries(name=name, points=[(float(x), float(y)) for x, y in source])


def downsample_cdf(cdf: Ecdf, *, points: int = 200) -> FigureSeries:
    """A fixed-size rendering of a (possibly huge) CDF.

    Only the sampled step points are converted to floats; the full
    :meth:`Ecdf.series` is built only when it is the rendering.
    """
    if cdf.n <= points:
        return FigureSeries(name="cdf", points=cdf.series())
    step = (cdf.n - 1) / (points - 1)
    indices = [round(i * step) for i in range(points)]
    sampled = list(zip(cdf.xs[indices].tolist(), cdf.ps[indices].tolist()))
    return FigureSeries(name="cdf", points=sampled)
