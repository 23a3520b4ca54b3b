"""Micro-benchmarks of the simulator building blocks.

These are not part of the paper's evaluation; they exist so performance
regressions in the hot paths (DEW per-request walk, reference per-access
lookup, LRU single-pass, trace generation) are caught by
``pytest benchmarks/ --benchmark-only``.
"""

import math
import os
import random
import time

import pytest

import numpy as np

from repro.cache.simulator import SingleConfigSimulator
from repro.core.config import CacheConfig
from repro.core.dew import DewSimulator
from repro.core.results import POLICY_TABLE, ConfigResult, ResultsFrame, SimulationResults
from repro.engine import build_grid_jobs, get_engine, merge_results, run_sweep
from repro.explore.pareto import pareto_front_frame, size_missrate_front
from repro.explore.tuner import CacheTuner
from repro.lru.janapsatya import JanapsatyaSimulator
from repro.store import open_store
from repro.trace.stats import compute_trace_statistics
from repro.trace.trace import collapse_block_runs
from repro.types import ReplacementPolicy
from repro.workloads.synthetic import SequentialStream, WorkingSetGenerator

SET_SIZES = tuple(2**i for i in range(11))


@pytest.fixture(scope="module")
def micro_trace():
    return WorkingSetGenerator(hot_bytes=8 << 10, cold_bytes=1 << 19).generate(20_000, seed=5)


def test_micro_dew_walk(benchmark, micro_trace):
    addresses = micro_trace.address_list()

    def run():
        simulator = DewSimulator(32, 4, SET_SIZES)
        for address in addresses:
            simulator.access(address)
        return simulator

    simulator = benchmark.pedantic(run, rounds=1, iterations=1)
    assert simulator.requests == len(addresses)


def test_micro_reference_lookup(benchmark, micro_trace):
    addresses = micro_trace.address_list()

    def run():
        simulator = SingleConfigSimulator(CacheConfig(256, 4, 32))
        for address in addresses:
            simulator.access(address)
        return simulator

    simulator = benchmark.pedantic(run, rounds=1, iterations=1)
    assert simulator.stats.accesses == len(addresses)


def test_micro_lru_single_pass(benchmark, micro_trace):
    def run():
        simulator = JanapsatyaSimulator(32, (1, 2, 4), SET_SIZES)
        return simulator.run(micro_trace)

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    assert len(results) == 3 * len(SET_SIZES)


def test_micro_trace_generation(benchmark):
    generator = WorkingSetGenerator(hot_bytes=4 << 10, cold_bytes=1 << 18)
    trace = benchmark(generator.generate, 20_000, 9)
    assert len(trace) == 20_000


def test_micro_trace_statistics(benchmark, micro_trace):
    stats = benchmark.pedantic(
        compute_trace_statistics, args=(micro_trace[:4000],), kwargs={"block_size": 32},
        rounds=1, iterations=1,
    )
    assert stats.length == 4000


def test_micro_chunked_pipeline_beats_per_address_loop(pr4_report):
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
        return time.perf_counter() - start, simulator.results()

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

    assert not chunked_results.diff(per_address_results)
    assert chunked_seconds < per_address_seconds, (
        f"chunked pipeline ({chunked_seconds:.3f}s) should beat the "
        f"per-address loop ({per_address_seconds:.3f}s)"
    )
    pr4_report["pr1_chunked_pipeline_vs_per_address"] = per_address_seconds / chunked_seconds


def test_micro_victim_cache_block_runs_speedup(pr8_report):
    """The victim-cache run-length path must be >= 1.5x over the raw walk.

    Mechanism engines pay a Python-level DL1 access per *distinct* block;
    repeats inside a run are guaranteed DL1 hits that never reach the
    mechanism, so ``run_block_runs`` bulk-accounts them.  On a byte-granular
    sequential stream (runs of ``block_size`` same-block accesses) the
    iteration count drops by the run length.  Emitted rows and every
    mechanism counter must stay byte-identical (the oracle suite pins
    exactness; this pins the payoff).
    """
    trace = SequentialStream(stride=1, region_bytes=1 << 16).generate(200_000, seed=0)
    options = dict(num_sets=64, associativity=2, block_size=64, entries=4)

    def time_raw():
        engine = get_engine("victim-cache", **options)
        start = time.perf_counter()
        for blocks in trace.iter_block_chunks(engine.offset_bits):
            engine.run_blocks(blocks)
        return time.perf_counter() - start, engine.finalize_frame("bench")

    def time_collapsed():
        engine = get_engine("victim-cache", **options)
        start = time.perf_counter()
        for values, counts in trace.iter_block_runs(engine.offset_bits):
            engine.run_block_runs(values, counts)
        return time.perf_counter() - start, engine.finalize_frame("bench")

    raw_seconds, raw_frame = min(
        (time_raw() for _ in range(3)), key=lambda pair: pair[0]
    )
    collapsed_seconds, collapsed_frame = min(
        (time_collapsed() for _ in range(3)), key=lambda pair: pair[0]
    )

    assert collapsed_frame == raw_frame
    speedup = raw_seconds / collapsed_seconds
    pr8_report["pr8_victim_cache_block_runs_speedup"] = speedup
    assert speedup >= 1.5, (
        f"victim-cache run-length path ({collapsed_seconds:.3f}s) should be "
        f">= 1.5x faster than the raw walk ({raw_seconds:.3f}s), "
        f"got {speedup:.2f}x"
    )


def _synthetic_families(num_families=16, num_levels=15, num_assocs=256):
    """Disjoint per-family result sets large enough to expose merge costs.

    Each family covers ``num_levels x num_assocs`` configurations of one
    block size/policy pair — tens of thousands of rows overall, the regime
    the sweep merge sees on full design-space studies.
    """
    families = []
    for index in range(num_families):
        block_size = 2 ** (index % 7)
        policy = list(ReplacementPolicy)[index // 7 % len(ReplacementPolicy)]
        results = [
            ConfigResult(
                CacheConfig(2**level, assoc, block_size, policy),
                accesses=100_000,
                misses=50_000 - level - assoc,
                compulsory_misses=level,
            )
            for level in range(num_levels)
            for assoc in range(1, num_assocs + 1)
        ]
        families.append(
            SimulationResults(results, simulator_name="bench", trace_name="merge")
        )
    return families


def test_micro_columnar_merge_beats_object_merge(pr4_report):
    """ResultsFrame.merge must outpace the object-level merge loop.

    The columnar path concatenates numpy key/value columns and deduplicates
    with one lexsort; the object path walks a Python dict per result.  With
    ~60k result rows the vectorised path must win (and both must produce
    identical rows).
    """
    families = _synthetic_families()
    frames = [family.frame() for family in families]

    def time_object_merge():
        start = time.perf_counter()
        merged = merge_results(families)
        return time.perf_counter() - start, merged

    def time_columnar_merge():
        start = time.perf_counter()
        merged = ResultsFrame.merge(frames)
        return time.perf_counter() - start, merged

    object_seconds, object_merged = min(
        (time_object_merge() for _ in range(3)), key=lambda pair: pair[0]
    )
    columnar_seconds, columnar_merged = min(
        (time_columnar_merge() for _ in range(3)), key=lambda pair: pair[0]
    )

    assert [r.as_dict() for r in columnar_merged] == object_merged.as_rows()
    assert columnar_seconds < object_seconds, (
        f"columnar merge ({columnar_seconds:.3f}s) should beat the "
        f"object-level merge ({object_seconds:.3f}s)"
    )
    pr4_report["pr2_columnar_merge_vs_object"] = object_seconds / columnar_seconds


def test_micro_warm_sweep_beats_cold_sweep(tmp_path, micro_trace, pr4_report):
    """A store-warmed sweep must execute zero jobs and beat the cold run.

    This quantifies the persistent store's win: the second run over the same
    trace and grid is pure artifact loading, so it must be faster than
    simulating, while producing byte-identical rows.
    """
    store = open_store(tmp_path / "store")
    jobs = build_grid_jobs([8, 32], [1, 2, 4], SET_SIZES, policies=("fifo", "lru"))

    cold_start = time.perf_counter()
    cold = run_sweep(micro_trace, jobs, store=store)
    cold_seconds = time.perf_counter() - cold_start

    warm_start = time.perf_counter()
    warm = run_sweep(micro_trace, jobs, store=store)
    warm_seconds = time.perf_counter() - warm_start

    assert cold.executed_jobs == len(jobs)
    assert warm.executed_jobs == 0
    assert warm.as_rows() == cold.as_rows()
    assert warm_seconds < cold_seconds, (
        f"store-warmed sweep ({warm_seconds:.3f}s) should beat the "
        f"cold sweep ({cold_seconds:.3f}s)"
    )
    pr4_report["pr2_warm_sweep_vs_cold"] = cold_seconds / warm_seconds


def _exploration_frame(rows=10_000):
    """A 10k-configuration frame with valid (power-of-two) geometries.

    Misses follow a deterministic pseudo-random pattern so the Pareto front
    and tuner have realistic (non-degenerate) work to do.
    """
    sets = [2**i for i in range(14)]
    blocks = [4, 8, 16, 32, 64]
    num_sets, block_sizes, assocs = [], [], []
    assoc = 1
    while len(num_sets) < rows:
        for block in blocks:
            for size in sets:
                num_sets.append(size)
                block_sizes.append(block)
                assocs.append(assoc)
        assoc += 1
    num_sets, block_sizes, assocs = (
        num_sets[:rows], block_sizes[:rows], assocs[:rows]
    )
    accesses = np.full(rows, 100_000, dtype=np.int64)
    # Misses shrink with capacity (a real size/performance trade-off, so the
    # front is non-trivial) plus deterministic pseudo-random noise.
    total = (
        np.asarray(num_sets, dtype=np.int64)
        * np.asarray(assocs, dtype=np.int64)
        * np.asarray(block_sizes, dtype=np.int64)
    )
    noise = (np.arange(rows, dtype=np.int64) * 2654435761) % 4_000
    misses = np.maximum(60_000 - (2_000 * np.log2(total)).astype(np.int64), 500) + noise
    fifo = POLICY_TABLE.index(ReplacementPolicy.FIFO.value)
    return ResultsFrame(
        num_sets, assocs, block_sizes, [fifo] * rows,
        accesses, misses, np.zeros(rows, dtype=np.int64),
    )


def test_micro_frame_pareto_beats_object_path(pr4_report):
    """pareto_front_frame must be >= 5x faster than the object-point path.

    The object path is the legacy API shape: materialise one ConfigResult
    and one ParetoPoint per row, then extract the front; the frame path
    slices two metric columns and runs the numpy domination kernel with no
    per-row objects.  Both must select exactly the same configurations in
    the same order.
    """
    frame = _exploration_frame()
    results = SimulationResults.from_frame(frame)

    def time_object_path():
        start = time.perf_counter()
        front = size_missrate_front(results)
        return time.perf_counter() - start, front

    def time_frame_path():
        start = time.perf_counter()
        indices = pareto_front_frame(frame, ("total_size", "miss_rate"))
        return time.perf_counter() - start, indices

    object_seconds, object_front = min(
        (time_object_path() for _ in range(3)), key=lambda pair: pair[0]
    )
    frame_seconds, frame_indices = min(
        (time_frame_path() for _ in range(3)), key=lambda pair: pair[0]
    )

    assert [point.config for point in object_front] == [
        frame.config_at(int(row)) for row in frame_indices
    ]
    assert frame_seconds * 5 <= object_seconds, (
        f"frame Pareto ({frame_seconds:.4f}s) should be >= 5x faster than "
        f"the object path ({object_seconds:.4f}s)"
    )
    pr4_report["pr3_frame_pareto_vs_object"] = object_seconds / frame_seconds


def test_micro_frame_tuner_beats_object_path(pr4_report):
    """CacheTuner.tune_frame must be >= 5x faster than the object path.

    The object path materialises every row as a ConfigResult and hands the
    list to tune() (which must rebuild columnar form); the frame path masks
    and argmins existing columns.  Both must pick the same configuration at
    the same objective value.
    """
    frame = _exploration_frame()
    tuner = CacheTuner(objective="edp")

    def time_object_path():
        start = time.perf_counter()
        outcome = tuner.tune(list(frame))
        return time.perf_counter() - start, outcome

    def time_frame_path():
        start = time.perf_counter()
        outcome = tuner.tune_frame(frame)
        return time.perf_counter() - start, outcome

    object_seconds, object_outcome = min(
        (time_object_path() for _ in range(3)), key=lambda pair: pair[0]
    )
    frame_seconds, frame_outcome = min(
        (time_frame_path() for _ in range(3)), key=lambda pair: pair[0]
    )

    assert frame_outcome.best == object_outcome.best
    assert frame_outcome.objective_value == object_outcome.objective_value
    assert frame_seconds * 5 <= object_seconds, (
        f"frame tuner ({frame_seconds:.4f}s) should be >= 5x faster than "
        f"the object path ({object_seconds:.4f}s)"
    )
    pr4_report["pr3_frame_tuner_vs_object"] = object_seconds / frame_seconds


def test_micro_dew_scales_with_levels(benchmark):
    """Sanity: simulating 15 set sizes costs far less than 15x one set size."""
    rng = random.Random(3)
    addresses = [rng.randrange(0, 1 << 16) for _ in range(5000)]

    def run_full_family():
        simulator = DewSimulator(32, 4, tuple(2**i for i in range(15)))
        for address in addresses:
            simulator.access(address)
        return simulator.counters.node_evaluations

    evaluations = benchmark.pedantic(run_full_family, rounds=1, iterations=1)
    assert evaluations < len(addresses) * 15


def _plane_bench_trace_file(directory):
    """A text trace file large enough that parsing it dominates (env-overridable)."""
    from repro.trace.din import write_din

    length = int(os.environ.get("REPRO_BENCH_PLANE_REQUESTS", "200000"))
    trace = SequentialStream(stride=1, region_bytes=1 << 18).generate(length, seed=2)
    path = os.path.join(directory, "planebench.din")
    write_din(trace, path)
    return path


def test_micro_warm_plane_attach_beats_cold_decode(tmp_path, pr9_report):
    """A warm trace attach plus local derive must beat a cold parse >= 5x.

    This isolates exactly what the trace cache removes from every warm
    sweep: the cold path re-reads and re-parses the trace text; the warm
    path maps the cached columns read-only.  Both paths then derive the
    same per-block-size shifts and run-length collapse from the addresses,
    as every sweep process does, and must produce bit-identical arrays.
    """
    from repro.trace.files import load_trace_file
    from repro.trace.planecache import open_plane_cache

    path = _plane_bench_trace_file(tmp_path)
    jobs = build_grid_jobs([16, 64], [2, 4], SET_SIZES)
    offsets = sorted({job.build().offset_bits for job in jobs})
    cache = open_plane_cache(tmp_path / "pc")
    warm_trace = load_trace_file(path, cache=cache)
    cache.ensure(warm_trace).close()
    fingerprint = warm_trace.fingerprint()

    def derive_all(trace):
        checks = []
        for offset in offsets:
            for blocks in trace.iter_block_chunks(offset):
                values, counts = collapse_block_runs(blocks)
                checks.append(int(blocks[-1]))
                checks.append(int(values[-1]) + int(counts[-1]))
        return checks

    def time_cold_decode():
        start = time.perf_counter()
        checks = derive_all(load_trace_file(path))
        return time.perf_counter() - start, checks

    def time_warm_attach():
        start = time.perf_counter()
        with cache.get(fingerprint) as plane:
            checks = derive_all(plane)
        return time.perf_counter() - start, checks

    cold_seconds, cold_checks = min(
        (time_cold_decode() for _ in range(3)), key=lambda pair: pair[0]
    )
    warm_seconds, warm_checks = min(
        (time_warm_attach() for _ in range(3)), key=lambda pair: pair[0]
    )

    assert warm_checks == cold_checks
    speedup = cold_seconds / warm_seconds
    pr9_report["pr9_warm_attach_vs_cold_decode"] = speedup
    pr9_report["pr9_cold_decode_seconds"] = cold_seconds
    pr9_report["pr9_warm_attach_seconds"] = warm_seconds
    assert speedup >= 5.0, (
        f"warm attach + derive ({warm_seconds:.4f}s) should be >= 5x faster "
        f"than cold parse + derive ({cold_seconds:.4f}s), got {speedup:.2f}x"
    )

    # The fingerprint sidecar's half of the warm path: a stat + sidecar
    # read vs hashing the full address arrays.
    def time_full_hash():
        trace = load_trace_file(path)
        start = time.perf_counter()
        trace.fingerprint()
        return time.perf_counter() - start

    def time_sidecar():
        start = time.perf_counter()
        assert cache.cached_fingerprint(path) is not None
        return time.perf_counter() - start

    hash_seconds = min(time_full_hash() for _ in range(3))
    sidecar_seconds = min(time_sidecar() for _ in range(3))
    pr9_report["pr9_sidecar_vs_full_hash"] = hash_seconds / sidecar_seconds
    pr9_report["pr9_full_hash_seconds"] = hash_seconds
    pr9_report["pr9_sidecar_seconds"] = sidecar_seconds


def test_micro_served_warm_corpus_latency(tmp_path, pr9_report):
    """Record the served cold-vs-warm submit-to-done latency on one corpus.

    The first job over a corpus pays the text parse, the content hash and
    the artifact write; later jobs over the same corpus (any grid) ride the
    sidecar + mmap attach.  The cold and warm requests use the same
    ``random``-policy grid with different seeds — identical simulation cost
    but distinct result-store cells — so the only structural difference
    between the runs is the trace handling the cache removes.  Every served payload must equal the direct
    sweep's.  Recorded as a trajectory; the pin is only that the warm p50
    does not *regress* past the cold time.
    """
    import statistics

    from repro.service import ServiceClient, ServiceDaemon, SweepRequest
    from repro.trace.din import write_din
    from repro.trace.files import load_trace_file

    length = int(os.environ.get("REPRO_BENCH_SERVED_REQUESTS", "60000"))
    trace = SequentialStream(stride=1, region_bytes=1 << 18).generate(length, seed=3)
    path = os.path.join(tmp_path, "servedbench.din")
    write_din(trace, path)
    root = tmp_path / "svc"
    client = ServiceClient(root, create=True)

    def serve_once(tag, request):
        start = time.perf_counter()
        response = client.submit(request)
        ServiceDaemon(root, daemon_id=f"bench-{tag}", socket=False).run(drain=True)
        payload = client.result_text(response["job_id"])
        return time.perf_counter() - start, payload

    def grid(seed):
        return SweepRequest(
            trace_path=path, block_sizes=(16,), associativities=(2,),
            max_sets=8, policies=("random",), seed=seed,
        )

    cold_seconds, _ = serve_once("cold", grid(0))
    warm_samples = []
    payload = None
    request = None
    for seed in (1, 2, 3):
        request = grid(seed)
        seconds, payload = serve_once(f"warm{seed}", request)
        warm_samples.append(seconds)
    direct = run_sweep(load_trace_file(path), request.build_jobs())
    assert payload == direct.merged().to_json()
    warm_p50 = statistics.median(warm_samples)
    pr9_report["pr9_served_cold_seconds"] = cold_seconds
    pr9_report["pr9_served_warm_p50_seconds"] = warm_p50
    pr9_report["pr9_served_warm_p50_improvement"] = cold_seconds / warm_p50
    assert warm_p50 <= cold_seconds * 1.25, (
        f"warm served p50 ({warm_p50:.3f}s) regressed past the cold "
        f"serve ({cold_seconds:.3f}s) plus tolerance"
    )


def test_micro_metrics_overhead_on_fused_hot_path(pr10_report):
    """The telemetry plane must cost < 2% on the fused hot path.

    Instruments fire per cell and per sweep, never per access, so the fused
    executor's inner loops are untouched; this pins that property.  Best of
    five samples per arm with the registry enabled vs disabled
    (``set_metrics_enabled``), byte-identical outputs required, the
    enabled/disabled ratio recorded in BENCH_PR10.json.

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
    pr10_report["pr10_metrics_overhead_ratio"] = ratio
    pr10_report["pr10_metrics_overhead_sweeps_per_sample"] = repeats
    pr10_report["pr10_sweep_phases_seconds"] = {
        name: round(seconds, 6) for name, seconds in sorted(profiled.phases.items())
    }
    assert ratio < 1.02, (
        f"metrics-enabled fused sweeps ({enabled_best:.3f}s for {repeats}) exceed the "
        f"disabled baseline ({disabled_best:.3f}s) by more than 2% "
        f"({ratio:.4f}x)"
    )
