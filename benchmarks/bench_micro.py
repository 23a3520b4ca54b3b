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

import math
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
        return time.perf_counter() - start, simulator.finalize()

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


def test_micro_metrics_overhead_on_fused_hot_path(bench_report):
    """The telemetry plane must cost < 2% on the fused hot path.

    Instruments fire per cell and per sweep, never per access, so the fused
    executor's inner loops are untouched; this pins that property.  Best of
    five samples per arm with the registry enabled vs disabled
    (``set_metrics_enabled``), byte-identical outputs required, the
    enabled/disabled ratio recorded in BENCH_MICRO.json.

    A sample is the same sweep repeated until it lasts at least 0.5 s: with
    the compiled DEW walk one sweep takes tens of milliseconds, too short
    to resolve 2%.  Within a round the two arms' sweeps alternate one by
    one, so a change of host speed, which on a shared host lasts seconds,
    slows both arms' samples alike.  The trace keeps its length, so the
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
    repeats = max(1, math.ceil(0.5 / timed_sweep(True)[0]))

    enabled_samples, disabled_samples = [], []
    reference = None
    for round_index in range(5):
        samples = {True: 0.0, False: 0.0}
        for repeat in range(repeats):
            # Alternate which arm runs first so cache/allocator warm-up
            # cannot systematically favour one of them.
            arms = [True, False] if (round_index + repeat) % 2 == 0 else [False, True]
            for enabled in arms:
                seconds, outcome = timed_sweep(enabled)
                samples[enabled] += seconds
                if reference is None:
                    reference = outcome.merged().to_json()
                elif repeat == 0:
                    assert outcome.merged().to_json() == reference
        enabled_samples.append(samples[True])
        disabled_samples.append(samples[False])

    enabled_best = min(enabled_samples)
    disabled_best = min(disabled_samples)
    ratio = enabled_best / disabled_best
    _, profiled = timed_sweep(True)
    bench_report["pr10_metrics_overhead_ratio"] = ratio
    bench_report["pr10_metrics_overhead_sweeps_per_sample"] = repeats
    bench_report["pr10_sweep_phases_seconds"] = {
        name: round(seconds, 6) for name, seconds in sorted(profiled.phases.items())
    }
    assert ratio < 1.02, (
        f"metrics-enabled fused sweeps ({enabled_best:.3f}s for {repeats}) exceed the "
        f"disabled baseline ({disabled_best:.3f}s) by more than 2% "
        f"({ratio:.4f}x)"
    )
