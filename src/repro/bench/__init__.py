"""Benchmark harness: everything needed to regenerate the paper's evaluation.

``harness``
    :class:`ExperimentRunner` drives DEW and the Dinero-style baseline over
    the modelled Mediabench workloads for the grid of block sizes and
    associativities used in the paper.
``tables``
    Text renderers for Tables 1-4.
``figures``
    Series extraction for Figures 5 (speed-up) and 6 (tag-comparison
    reduction).
"""

from repro.bench.harness import ExperimentCell, ExperimentRunner, PropertyCell, default_request_budget
from repro.bench.tables import (
    format_table,
    format_table1,
    format_table2,
    format_table3,
    format_table4,
)
from repro.bench.figures import (
    FigurePoint,
    speedup_series,
    comparison_reduction_series,
    series_as_rows,
)

__all__ = [
    "ExperimentCell",
    "ExperimentRunner",
    "PropertyCell",
    "default_request_budget",
    "format_table",
    "format_table1",
    "format_table2",
    "format_table3",
    "format_table4",
    "FigurePoint",
    "speedup_series",
    "comparison_reduction_series",
    "series_as_rows",
]
