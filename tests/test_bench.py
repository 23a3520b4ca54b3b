"""Tests for the benchmark harness, table formatters and figure series."""

import dataclasses

import pytest

from repro.bench.figures import (
    comparison_reduction_series,
    implementation_label,
    render_ascii_chart,
    series_as_rows,
    speedup_series,
)
from repro.bench.harness import ExperimentCell, ExperimentRunner, PropertyCell, default_request_budget
from repro.bench.tables import (
    format_table,
    format_table1,
    format_table2,
    format_table3,
    format_table4,
    rows_as_csv,
)
from repro.workloads.mediabench import PAPER_REQUEST_COUNTS


@pytest.fixture(scope="module")
def small_runner() -> ExperimentRunner:
    return ExperimentRunner(
        apps=["cjpeg", "g721_enc"],
        block_sizes=(16,),
        associativities=(4,),
        set_sizes=tuple(2**i for i in range(8)),
        max_requests=3000,
        proportional_lengths=False,
        seed=1,
    )


@pytest.fixture(scope="module")
def small_cells(small_runner):
    return small_runner.run_table3()


class TestExperimentRunner:
    def test_default_request_budget_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_REQUESTS", raising=False)
        assert default_request_budget() == 20000
        monkeypatch.setenv("REPRO_BENCH_REQUESTS", "50000")
        assert default_request_budget() == 50000
        monkeypatch.setenv("REPRO_BENCH_REQUESTS", "junk")
        assert default_request_budget() == 20000
        monkeypatch.setenv("REPRO_BENCH_REQUESTS", "10")
        assert default_request_budget() == 1000

    def test_traces_cached_and_sized(self, small_runner):
        traces = small_runner.traces()
        assert set(traces) == {"cjpeg", "g721_enc"}
        assert all(len(trace) == 3000 for trace in traces.values())
        assert small_runner.trace_for("cjpeg") is traces["cjpeg"]

    def test_proportional_lengths(self):
        runner = ExperimentRunner(apps=["cjpeg", "mpeg2_enc"], max_requests=50_000,
                                  proportional_lengths=True)
        assert runner.request_count("mpeg2_enc") == 50_000
        assert runner.request_count("cjpeg") < 50_000

    def test_run_cell_fields(self, small_cells):
        cell = small_cells[0]
        assert isinstance(cell, ExperimentCell)
        assert cell.exact_match
        assert cell.dew_seconds > 0 and cell.dinero_seconds > 0
        assert cell.dew_comparisons > 0 and cell.dinero_comparisons > 0
        assert cell.configs_simulated == 16  # 8 set sizes x {1, 4} ways
        assert cell.speedup > 1.0
        assert 0.0 <= cell.comparison_reduction_percent <= 100.0
        assert cell.comparison_ratio > 1.0
        assert cell.as_dict()["app"] == cell.app

    def test_dew_beats_baseline_everywhere(self, small_cells):
        assert all(cell.speedup > 1.0 for cell in small_cells)

    def test_run_table4(self, small_runner):
        rows = small_runner.run_table4(block_size=16, associativities=(4,))
        assert len(rows) == 2
        row = rows[0]
        assert isinstance(row, PropertyCell)
        assert row.dew_evaluations <= row.unoptimised_evaluations
        assert row.mra_count > 0
        assert set(row.per_associativity) == {4}
        assert {"searches", "wave_count", "mre_count"} <= set(row.per_associativity[4])
        assert row.as_dict()["assoc4_searches"] == row.per_associativity[4]["searches"]

    def test_headline_claims(self, small_runner, small_cells):
        headline = small_runner.run_headline_claims(small_cells)
        assert headline["min_speedup"] > 1.0
        assert headline["max_speedup"] >= headline["min_speedup"]
        assert headline["all_exact"] == 1.0


class TestTablesAndFigures:
    def test_format_table_alignment(self):
        text = format_table(("a", "bee"), [(1, 22), (333, 4)], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert len(lines) == 5  # title, header, rule, two data rows

    def test_format_table1_counts(self):
        text = format_table1()
        assert "525" in text

    def test_format_table2(self, small_runner):
        text = format_table2(small_runner.traces(), PAPER_REQUEST_COUNTS)
        assert "cjpeg" in text and "25,680,911" in text

    def test_format_table3(self, small_cells):
        text = format_table3(small_cells)
        assert "cjpeg" in text and "DEW s (1&4)" in text

    def test_format_table4(self, small_runner):
        text = format_table4(small_runner.run_table4(block_size=16, associativities=(4,)))
        assert "MRA count" in text

    def test_figure_series(self, small_cells):
        speedups = speedup_series(small_cells)
        reductions = comparison_reduction_series(small_cells)
        assert set(speedups) == {"cjpeg", "g721_enc"}
        assert all(point.value > 1.0 for points in speedups.values() for point in points)
        assert all(0 <= point.value <= 100 for points in reductions.values() for point in points)
        rows = series_as_rows(speedups)
        assert rows[0]["app"] == "cjpeg"

    def test_implementation_label_names_each_side(self, small_cells):
        [walk] = {cell.dew_walk for cell in small_cells}
        name, _, reason = walk.partition(" ")
        expected = f"DEW: {name} walk {reason}".rstrip() + "; baseline: Python single"
        assert implementation_label(small_cells) == expected

        cell = small_cells[0]
        stored = dataclasses.replace(cell, dew_walk=None)
        assert implementation_label([stored]) == (
            "DEW: unknown walk (from store); baseline: Python single"
        )
        mixed = [
            dataclasses.replace(cell, dew_walk="python (no compiler: cc --version failed)"),
            dataclasses.replace(cell, dew_walk="kernel"),
        ]
        assert implementation_label(mixed) == (
            "DEW: kernel walk, python walk (no compiler: cc --version failed); "
            "baseline: Python single"
        )

    def test_render_ascii_chart(self, small_cells):
        chart = render_ascii_chart(speedup_series(small_cells), "speedup")
        assert "speedup" in chart and "#" in chart
        assert render_ascii_chart({}, "empty").startswith("(no data")

    def test_rows_as_csv(self, small_cells):
        csv_text = rows_as_csv([cell.as_dict() for cell in small_cells])
        assert csv_text.splitlines()[0].startswith("app,")
        assert rows_as_csv([]) == ""
