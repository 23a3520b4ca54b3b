"""Series extraction for the paper's figures.

Figure 5 plots the speed-up of DEW over Dinero IV per application, block size
and associativity; Figure 6 plots the percentage reduction in tag
comparisons over the same grid.  Both are derived directly from the Table 3
cells, so the functions here simply reshape :class:`ExperimentCell` lists
into per-application series that can be printed or plotted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from repro.bench.harness import ExperimentCell


@dataclass(frozen=True)
class FigurePoint:
    """One bar of Figure 5 or Figure 6."""

    app: str
    block_size: int
    associativity: int
    value: float

    def as_dict(self) -> Dict[str, object]:
        """Plain-dictionary view for reporting."""
        return {
            "app": self.app,
            "block_size": self.block_size,
            "associativity": self.associativity,
            "value": self.value,
        }


def _series(cells: Iterable[ExperimentCell], metric) -> Dict[str, List[FigurePoint]]:
    series: Dict[str, List[FigurePoint]] = {}
    for cell in cells:
        series.setdefault(cell.app, []).append(
            FigurePoint(cell.app, cell.block_size, cell.associativity, metric(cell))
        )
    for points in series.values():
        points.sort(key=lambda point: (point.associativity, point.block_size))
    return series


def speedup_series(cells: Iterable[ExperimentCell]) -> Dict[str, List[FigurePoint]]:
    """Figure 5: DEW speed-up over the baseline, grouped by application."""
    return _series(cells, lambda cell: cell.speedup)


def implementation_label(cells: Iterable[ExperimentCell]) -> str:
    """Which implementation each side of Figure 5's speed-up ran, e.g.
    ``DEW: kernel walk; baseline: kernel single``.

    Each side reads ``kernel``, ``python (<reason>)`` or, for a cell half
    loaded from the result store, ``unknown (from store)``.  Only when both
    read ``kernel`` does the speed-up compare compiled code with compiled
    code, as the paper's DEW against Dinero IV does.
    """
    cells = list(cells)

    def side(walks: Iterable[Optional[str]], noun: str) -> str:
        labels = []
        for walk in sorted({walk or "unknown (from store)" for walk in walks}):
            name, _, reason = walk.partition(" ")
            labels.append(f"{name} {noun} {reason}".rstrip())
        return ", ".join(labels)

    dew = side((cell.dew_walk for cell in cells), "walk")
    baseline = side((cell.baseline_walk for cell in cells), "single")
    return f"DEW: {dew}; baseline: {baseline}"


def comparison_reduction_series(cells: Iterable[ExperimentCell]) -> Dict[str, List[FigurePoint]]:
    """Figure 6: percentage reduction of tag comparisons, grouped by application."""
    return _series(cells, lambda cell: cell.comparison_reduction_percent)


def series_as_rows(series: Mapping[str, Sequence[FigurePoint]]) -> List[Dict[str, object]]:
    """Flatten a series mapping into a list of dictionaries for CSV output."""
    rows: List[Dict[str, object]] = []
    for app in sorted(series):
        rows.extend(point.as_dict() for point in series[app])
    return rows


def render_ascii_chart(
    series: Mapping[str, Sequence[FigurePoint]],
    value_label: str,
    width: int = 50,
) -> str:
    """Render a horizontal-bar ASCII chart of a figure series."""
    rows = series_as_rows(series)
    if not rows:
        return f"(no data for {value_label})"
    maximum = max(float(row["value"]) for row in rows) or 1.0
    lines = [f"{value_label} (max = {maximum:.2f})"]
    for row in rows:
        value = float(row["value"])
        bar = "#" * max(int(round(width * value / maximum)), 0)
        label = f"{row['app']} B={row['block_size']} A={row['associativity']}"
        lines.append(f"{label:<28} {value:10.2f} {bar}")
    return "\n".join(lines)
