"""Shared fixtures for the paper-reproduction benchmarks.

The expensive part of the evaluation — the Table 3 sweep (every application x
block size x associativity, simulated by both DEW and the Dinero-style
baseline) — is computed once per session and shared by the Table 3, Figure 5
and Figure 6 benchmarks.

Trace lengths are controlled by ``REPRO_BENCH_REQUESTS`` (default 20000); the
paper's original traces are millions to billions of requests, which a pure
Python harness cannot replay in CI time.  See EXPERIMENTS.md for the scaling
discussion.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.bench.harness import ExperimentRunner


@pytest.fixture(scope="session")
def pr4_report():
    """Collector for machine-readable speedup measurements.

    Benchmarks that measure a "new path vs old path" ratio record it here
    (``report["name"] = ratio``); at session end the collected trajectory is
    written as ``BENCH_PR4.json`` (path overridable via the
    ``REPRO_BENCH_PR4`` environment variable) so CI can archive how each
    optimisation layer performs over time.
    """
    data = {}
    yield data
    if data:
        path = os.environ.get("REPRO_BENCH_PR4", "BENCH_PR4.json")
        with open(path, "w", encoding="ascii") as handle:
            json.dump(dict(sorted(data.items())), handle, indent=2, sort_keys=True)
            handle.write("\n")


@pytest.fixture(scope="session")
def pr5_report():
    """Collector for the service throughput benchmark's measurements.

    Written as ``BENCH_PR5.json`` (path overridable via ``REPRO_BENCH_PR5``)
    at session end: submissions, dedup ratio, cell reuse and p50/p95
    submit-to-done latency — the serving layer's counterpart to the
    BENCH_PR4 speedup trajectory.
    """
    data = {}
    yield data
    if data:
        path = os.environ.get("REPRO_BENCH_PR5", "BENCH_PR5.json")
        with open(path, "w", encoding="ascii") as handle:
            json.dump(dict(sorted(data.items())), handle, indent=2, sort_keys=True)
            handle.write("\n")


@pytest.fixture(scope="session")
def pr7_report():
    """Collector for the multi-daemon fleet benchmark's measurements.

    Written as ``BENCH_PR7.json`` (path overridable via ``REPRO_BENCH_PR7``)
    at session end: jobs/sec vs daemon count on the saturation workload,
    socket-vs-polling submit-to-done latency, and the SIGKILL-failover
    outcome — the horizontal-scaling counterpart to BENCH_PR5.
    """
    data = {}
    yield data
    if data:
        path = os.environ.get("REPRO_BENCH_PR7", "BENCH_PR7.json")
        with open(path, "w", encoding="ascii") as handle:
            json.dump(dict(sorted(data.items())), handle, indent=2, sort_keys=True)
            handle.write("\n")


@pytest.fixture(scope="session")
def pr8_report():
    """Collector for the mechanism-engine benchmark's measurements.

    Written as ``BENCH_PR8.json`` (path overridable via ``REPRO_BENCH_PR8``)
    at session end: the victim-cache run-length-collapse speedup over the
    raw per-access walk.
    """
    data = {}
    yield data
    if data:
        path = os.environ.get("REPRO_BENCH_PR8", "BENCH_PR8.json")
        with open(path, "w", encoding="ascii") as handle:
            json.dump(dict(sorted(data.items())), handle, indent=2, sort_keys=True)
            handle.write("\n")


@pytest.fixture(scope="session")
def pr9_report():
    """Collector for the trace plane cache benchmark's measurements.

    Written as ``BENCH_PR9.json`` (path overridable via ``REPRO_BENCH_PR9``)
    at session end: the warm mmap-attach speedup over a cold text decode,
    the sidecar fingerprint speedup over a full-file hash, and the served
    warm-corpus submit-to-done p50 — the decode-once counterpart to the
    BENCH_PR4-PR8 trajectories.
    """
    data = {}
    yield data
    if data:
        path = os.environ.get("REPRO_BENCH_PR9", "BENCH_PR9.json")
        with open(path, "w", encoding="ascii") as handle:
            json.dump(dict(sorted(data.items())), handle, indent=2, sort_keys=True)
            handle.write("\n")


@pytest.fixture(scope="session")
def pr10_report():
    """Collector for the telemetry plane benchmark's measurements.

    Written as ``BENCH_PR10.json`` (path overridable via ``REPRO_BENCH_PR10``)
    at session end: the fused hot-path overhead ratio with the metrics
    registry enabled vs disabled (pinned < 2%) and a per-phase breakdown of
    one instrumented sweep — the observability counterpart to the
    BENCH_PR4-PR9 trajectories.
    """
    data = {}
    yield data
    if data:
        path = os.environ.get("REPRO_BENCH_PR10", "BENCH_PR10.json")
        with open(path, "w", encoding="ascii") as handle:
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
