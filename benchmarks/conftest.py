"""Shared fixtures for the paper-reproduction benchmarks.

The expensive part of the evaluation — the Table 3 sweep (every application x
block size x associativity, simulated by both DEW and the Dinero-style
baseline) — is computed once per session and shared by the Table 3, Figure 5
and Figure 6 benchmarks.

Trace lengths are controlled by ``REPRO_BENCH_REQUESTS`` (default 20000) and
the workload seed by ``REPRO_BENCH_SEED`` (default 2010); the paper's original
traces are millions to billions of requests, far more than CI time allows.

``bench_report`` collects the three micro-benchmark pins' measurements into
``BENCH_MICRO.json``.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.bench.harness import ExperimentRunner


@pytest.fixture(scope="session")
def bench_report():
    """Collector for the micro-benchmark pins' measurements.

    Each pin records what it measured (``bench_report["name"] = value``);
    at session end the collected values are written to ``BENCH_MICRO.json``
    with sorted keys, which CI prints and archives.
    """
    data = {}
    yield data
    if data:
        with open("BENCH_MICRO.json", "w", encoding="ascii") as handle:
            json.dump(dict(sorted(data.items())), handle, indent=2, sort_keys=True)
            handle.write("\n")


@pytest.fixture(scope="session")
def experiment_runner() -> ExperimentRunner:
    """The paper's evaluation grid at a Python-tractable trace length."""
    return ExperimentRunner(
        proportional_lengths=False,
        seed=int(os.environ.get("REPRO_BENCH_SEED", "2010")),
    )


@pytest.fixture(scope="session")
def table3_cells(experiment_runner):
    """All Table 3 cells (also feeds Figures 5 and 6)."""
    return experiment_runner.run_table3()
