"""Table 2 — the workload traces driving the evaluation.

The paper's Table 2 lists the SimpleScalar trace lengths of the six
Mediabench programs.  Here the traces are synthesised (the
:mod:`repro.workloads` module docstring says why) and scaled down (see
``REPRO_BENCH_REQUESTS`` in ``conftest.py``); this benchmark reports the
lengths actually used and measures trace generation throughput.
"""

from repro.bench.tables import format_table2
from repro.workloads.mediabench import PAPER_REQUEST_COUNTS, mediabench_trace

from _bench_util import write_output


def test_table2_trace_inventory(benchmark, experiment_runner):
    traces = benchmark(experiment_runner.traces)
    assert set(traces) == set(PAPER_REQUEST_COUNTS)
    assert all(len(trace) >= 1000 for trace in traces.values())
    text = format_table2(traces, PAPER_REQUEST_COUNTS)
    write_output("table2.txt", text)
    print()
    print(text)


def test_table2_generation_throughput(benchmark):
    trace = benchmark(mediabench_trace, "cjpeg", 20_000, 7)
    assert len(trace) == 20_000


def test_table2_models_are_deterministic(benchmark):
    first = mediabench_trace("mpeg2_dec", 5_000, seed=3)
    second = benchmark(mediabench_trace, "mpeg2_dec", 5_000, 3)
    assert first == second
