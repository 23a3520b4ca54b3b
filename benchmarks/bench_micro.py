"""Micro-benchmark pins that no perfbench metric measures.

perfbench (``python3 perfbench/run.py --workload W --seed N --seconds S``) is
the benchmark; tier-1 holds every correctness claim.  Two ratio pins stay
here because perfbench does not time what they compare:

* ``test_micro_chunked_pipeline_beats_per_address_loop``: DEW's chunked
  block pipeline against its per-address ``access`` loop, rows identical.
  It goes with the path it pins, once that path is deleted.
* ``test_micro_metrics_overhead_on_fused_hot_path``: the metrics registry
  costs < 2% on the fused sweep, outputs identical
  (``perfbench/layers.json`` points here for the ``obs`` layer).

The measured values land in ``BENCH_MICRO.json`` through the
``bench_report`` fixture.
"""

import statistics
import time

from repro.core.dew import DewSimulator
from repro.engine import build_grid_jobs, get_engine, run_sweep
from repro.workloads.synthetic import SequentialStream, WorkingSetGenerator

SET_SIZES = tuple(2**i for i in range(11))


def test_micro_chunked_pipeline_beats_per_address_loop(bench_report):
    """The engine block pipeline must outpace the per-address loop.

    The chunked path shifts addresses to block addresses with one vectorised
    numpy operation per chunk and hoists the walk state once per chunk; the
    per-address loop pays a Python-level shift and call per access.  On a
    100k+ access trace the difference must be a measurable speedup (and the
    miss counts must stay identical).
    """
    trace = WorkingSetGenerator(hot_bytes=16 << 10, cold_bytes=1 << 20).generate(
        120_000, seed=17
    )
    addresses = trace.address_list()

    def time_per_address():
        simulator = DewSimulator(32, 4, SET_SIZES)
        start = time.perf_counter()
        for address in addresses:
            simulator.access(address)
        seconds = time.perf_counter() - start
        # Fed by hand, the simulator reports the compulsory misses it is
        # handed, as Engine.run hands them.
        simulator.set_compulsory(trace.unique_blocks(32))
        return seconds, simulator.finalize()

    def time_chunked():
        engine = get_engine("dew", block_size=32, associativity=4, set_sizes=SET_SIZES)
        start = time.perf_counter()
        results = engine.run(trace)
        return time.perf_counter() - start, results

    # Best-of-3 damps scheduler/GC noise on shared CI runners.
    per_address_seconds, per_address_results = min(
        (time_per_address() for _ in range(3)), key=lambda pair: pair[0]
    )
    chunked_seconds, chunked_results = min(
        (time_chunked() for _ in range(3)), key=lambda pair: pair[0]
    )

    assert chunked_results.as_rows() == per_address_results.as_rows()
    assert chunked_seconds < per_address_seconds, (
        f"chunked pipeline ({chunked_seconds:.3f}s) should beat the "
        f"per-address loop ({per_address_seconds:.3f}s)"
    )
    bench_report["pr1_chunked_pipeline_vs_per_address"] = per_address_seconds / chunked_seconds


#: Rounds of the metrics-overhead pin, one sweep per arm each; its estimate
#: is the median of the rounds' ratios.
OVERHEAD_ROUNDS = 201


def test_micro_metrics_overhead_on_fused_hot_path(bench_report):
    """The telemetry plane must cost < 2% on the fused hot path.

    Instruments fire per cell and per sweep, never per access, so the fused
    executor's inner loops are untouched; this pins that property.  Each
    round runs the same sweep once with the registry enabled and once with
    it disabled (``set_metrics_enabled``), the two back to back in
    alternating order, and the estimate is the median of the rounds'
    enabled/disabled ratios.  Outputs must be byte-identical, and the
    estimate is recorded in BENCH_MICRO.json.

    With the compiled DEW walk one sweep takes tens of milliseconds, and a
    round's ratio spreads by several percent: a sweep now and then runs
    long (the host's other work, the collector).  A change of host speed,
    which on a shared host lasts seconds, slows both sweeps of a round
    alike and cancels in its ratio, and the median drops the rounds one
    long sweep hit, so over ``OVERHEAD_ROUNDS`` rounds the estimate's
    standard error is a fraction of a percent.  (Comparing each arm's
    fastest sample instead compares two lucky moments, which the host's
    speed states move by more than 2%.)  The trace keeps its length, so the
    per-cell metrics cost keeps its share.
    """
    from repro.obs.metrics import set_metrics_enabled

    trace = SequentialStream(stride=1, region_bytes=1 << 17).generate(600_000, seed=2)
    jobs = build_grid_jobs([16, 64], [2, 4], SET_SIZES)

    def timed_sweep(enabled):
        if not enabled:
            set_metrics_enabled(False)
        try:
            start = time.perf_counter()
            outcome = run_sweep(trace, jobs)
            return time.perf_counter() - start, outcome
        finally:
            set_metrics_enabled(True)

    timed_sweep(True)  # warm caches before either arm is measured
    ratios, outcomes = [], []
    for round_index in range(OVERHEAD_ROUNDS):
        # Alternate which arm runs first so cache/allocator warm-up
        # cannot systematically favour one of them.
        arms = (True, False) if round_index % 2 == 0 else (False, True)
        seconds = {}
        for enabled in arms:
            seconds[enabled], outcome = timed_sweep(enabled)
            outcomes.append(outcome)
        ratios.append(seconds[True] / seconds[False])
    # Compared once the timing is done, so no round times the comparison's
    # garbage.
    reference = outcomes[0].merged().to_json()
    assert all(outcome.merged().to_json() == reference for outcome in outcomes)

    ratio = statistics.median(ratios)
    _, profiled = timed_sweep(True)
    bench_report["pr10_metrics_overhead_ratio"] = ratio
    bench_report["pr10_metrics_overhead_rounds"] = OVERHEAD_ROUNDS
    bench_report["pr10_sweep_phases_seconds"] = {
        name: round(seconds, 6) for name, seconds in sorted(profiled.phases.items())
    }
    low, _, high = statistics.quantiles(ratios, n=4)
    assert ratio < 1.02, (
        f"metrics-enabled fused sweeps exceed the disabled baseline by more than 2%: "
        f"median ratio {ratio:.4f}x over {OVERHEAD_ROUNDS} rounds "
        f"(quartiles {low:.4f}-{high:.4f})"
    )
