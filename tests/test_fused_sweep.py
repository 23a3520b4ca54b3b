"""Tests for the fused single-pass sweep executor.

The contract under test is *byte-identity*: the fused executor (shared
decode, frame-native finalize) must produce exactly the
rows, counters and store artifacts of running each job on its own through
:meth:`Engine.run` — serial, pooled, cold, warm and partially warm alike.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.engine import (
    FusedSweepExecutor,
    SweepJob,
    build_grid_jobs,
    build_mechanism_grid_jobs,
    get_engine,
    get_engine_class,
    run_sweep,
)
from repro.engine import sweep as sweep_module
from repro.engine.sweep import _partition_fused_batches
from repro.core.results import ResultsFrame
from repro.core.tree import STORAGE_POOL
from repro.errors import EngineError, ReproError
from repro.store import open_store
from repro.trace.trace import DEFAULT_CHUNK_SIZE, Trace
from repro.types import AccessType
from repro.workloads.synthetic import SequentialStream, WorkingSetGenerator

SET_SIZES = (1, 2, 4, 8, 16, 32)


def assert_matches_per_job(outcome, trace, jobs, chunk_size=DEFAULT_CHUNK_SIZE):
    """``outcome`` equals the per-job reference: each job's own ``Engine.run``.

    Compares the merged rows and JSON plus every job's work counters
    (``DewCounters`` including ``evaluations_per_level``).
    """
    reference = [job.build().run(trace, chunk_size=chunk_size) for job in jobs]
    merged = ResultsFrame.merge(reference, trace_name=outcome.trace_name)
    assert outcome.as_rows() == merged.as_rows()
    assert outcome.merged().to_json() == merged.to_json()
    assert [r.counters for r in outcome.results] == [r.counters for r in reference]


@pytest.fixture(scope="module")
def sweep_trace() -> Trace:
    return WorkingSetGenerator(hot_bytes=2048, cold_bytes=1 << 16).generate(
        4000, seed=21
    ).with_name("fused")


@pytest.fixture(scope="module")
def grid_jobs():
    return build_grid_jobs([8, 32], [1, 2, 4], SET_SIZES, policies=("fifo", "lru"))


class TestFinalizeFrame:
    def test_dew_finalize_frame_matches_finalize(self, sweep_trace):
        engine = get_engine("dew", block_size=16, associativity=4, set_sizes=SET_SIZES)
        ran = engine.run(sweep_trace)
        frame = engine.finalize(trace_name="t")
        assert isinstance(frame, ResultsFrame)
        assert frame.as_rows() == ran.as_rows()
        assert frame.simulator_name == "dew"
        # One DEW row per level plus the free direct-mapped row per level.
        assert len(frame) == 2 * len(SET_SIZES)
        assert frame.counters is engine.counters
        assert frame.walk == engine.walk

    def test_single_finalize_frame_matches_finalize(self, sweep_trace):
        from repro.core.config import CacheConfig

        config = CacheConfig(8, 2, 16)
        engine = get_engine("single", config=config)
        engine.run(sweep_trace)
        frame = engine.finalize(trace_name="t")
        stats = engine.stats
        [row] = frame
        assert row.config == config
        assert (row.accesses, row.misses, row.compulsory_misses) == (
            stats.accesses, stats.misses, stats.compulsory_misses
        )
        assert frame.counters is None and frame.walk == engine.walk

    def test_default_finalize_frame_adapts_finalize(self, sweep_trace):
        from repro.core.config import CacheConfig
        from repro.types import ReplacementPolicy

        engine = get_engine(
            "janapsatya", block_size=16, associativities=(1, 2), set_sizes=(1, 2, 4)
        )
        engine.run(sweep_trace)
        frame = engine.finalize(trace_name="t")
        # One row per (set size, associativity), each equal to that
        # configuration simulated on its own.
        configs = [
            CacheConfig(size, assoc, 16, ReplacementPolicy.LRU)
            for size in (1, 2, 4)
            for assoc in (1, 2)
        ]
        assert frame.configs() == configs
        for config in configs:
            reference = get_engine("single", config=config).run(sweep_trace)
            assert frame[config].misses == reference[config].misses, config.label()
        assert all(r.accesses == len(sweep_trace) for r in frame)
        assert frame.simulator_name == "janapsatya-lru"
        assert frame.counters is engine.counters


class TestFusedSweepIdentity:
    def test_fused_matches_per_job_serial(self, sweep_trace, grid_jobs):
        assert_matches_per_job(run_sweep(sweep_trace, grid_jobs), sweep_trace, grid_jobs)

    def test_fused_matches_per_job_parallel(self, sweep_trace, grid_jobs):
        outcome = run_sweep(sweep_trace, grid_jobs, workers=2)
        assert_matches_per_job(outcome, sweep_trace, grid_jobs)

    def test_fused_accepts_bare_address_sequences(self, small_random_addresses):
        jobs = build_grid_jobs([8], [2], (1, 2, 4))
        addresses = list(small_random_addresses)
        assert_matches_per_job(run_sweep(addresses, jobs), addresses, jobs)

    @settings(max_examples=25, deadline=None)
    @given(
        addresses=st.lists(st.integers(0, 1023), min_size=1, max_size=200),
        chunk_size=st.integers(1, 64),
    )
    def test_tiny_trace_chunk_size_oracle(self, addresses, chunk_size):
        """For arbitrary tiny traces and chunk sizes, the fused pass equals
        the per-job reference at the same chunk size."""
        trace = Trace(np.array(addresses, dtype=np.int64))
        jobs = build_grid_jobs([16], [2], [1, 2, 4], policies=["fifo", "lru"])
        outcome = run_sweep(trace, jobs, chunk_size=chunk_size)
        assert_matches_per_job(outcome, trace, jobs, chunk_size)

    def test_executor_requires_jobs(self, sweep_trace):
        with pytest.raises(EngineError, match="at least one job"):
            FusedSweepExecutor(sweep_trace, [])

    def test_partition_batches_cover_all_positions(self, grid_jobs):
        for workers in (1, 2, 3, len(grid_jobs)):
            batches = _partition_fused_batches(grid_jobs, workers)
            flattened = sorted(position for batch in batches for position in batch)
            assert flattened == list(range(len(grid_jobs)))
            assert len(batches) <= workers

    def test_fused_store_resume_byte_identity(self, tmp_path, sweep_trace, grid_jobs):
        store = open_store(tmp_path / "store")
        cold = run_sweep(sweep_trace, grid_jobs, store=store)
        assert cold.executed_jobs == len(grid_jobs)
        warm = run_sweep(sweep_trace, grid_jobs, store=store)
        assert warm.executed_jobs == 0
        assert warm.as_rows() == cold.as_rows()
        # Kill one artifact: only that job re-runs, rows stay identical.
        fingerprint = sweep_trace.fingerprint()
        assert store.delete(grid_jobs[1].store_key(fingerprint))
        partial = run_sweep(sweep_trace, grid_jobs, store=store)
        assert partial.executed_jobs == 1
        assert partial.cached_jobs == len(grid_jobs) - 1
        assert partial.as_rows() == cold.as_rows()

    def test_fused_store_matches_per_job_store(self, tmp_path, sweep_trace, grid_jobs):
        """A store written from per-job runs warms a fused sweep."""
        store = open_store(tmp_path / "store")
        fingerprint = sweep_trace.fingerprint()
        per_job = [job.build().run(sweep_trace) for job in grid_jobs]
        for job, results in zip(grid_jobs, per_job):
            store.put(job.store_key(fingerprint), results)
        warm_fused = run_sweep(sweep_trace, grid_jobs, store=store)
        assert warm_fused.executed_jobs == 0
        assert warm_fused.as_rows() == ResultsFrame.merge(per_job).as_rows()


def _abort(index, job, results, cached):
    raise KeyboardInterrupt


class TestPooledSweep:
    """The pooled path: one fused batch per worker, each deriving its own
    shifted arrays from the trace it was handed."""

    def test_pooled_store_resume_reruns_one_cell(self, tmp_path, sweep_trace, grid_jobs):
        store = open_store(tmp_path / "store")
        cold = run_sweep(sweep_trace, grid_jobs, store=store, workers=2)
        assert cold.executed_jobs == len(grid_jobs)
        # Evict one artifact and resume pooled: only that cell re-runs.
        assert store.delete(grid_jobs[0].store_key(sweep_trace.fingerprint()))
        warm = run_sweep(sweep_trace, grid_jobs, store=store, workers=2)
        assert warm.cached_jobs == len(grid_jobs) - 1
        assert warm.executed_jobs == 1
        assert warm.as_rows() == cold.as_rows()
        assert_matches_per_job(run_sweep(sweep_trace, grid_jobs, workers=2), sweep_trace, grid_jobs)

    def test_worker_build_failure_surfaces_as_repro_error(self, sweep_trace, grid_jobs):
        # An engine whose construction fails inside a worker process.
        bad = SweepJob.make("dew", block_size=16, associativity=0, set_sizes=(1,))
        with pytest.raises(ReproError):
            run_sweep(sweep_trace, list(grid_jobs) + [bad], workers=2)

    def test_aborting_hook_propagates_serial_and_pooled(
        self, sweep_trace, grid_jobs, tmp_path, monkeypatch
    ):
        for workers in (1, 2):
            with pytest.raises(KeyboardInterrupt):
                run_sweep(sweep_trace, grid_jobs, workers=workers, on_result=_abort)
        # Serially, with a store, a hook that raises on the first fresh job
        # ends the pass there: no further engine is built, that job's
        # artifact alone is stored, and the pass's pool scope has closed, so
        # the pool dropped what it held before the pass and holds at most
        # what the pass released.  Holding the exception's traceback keeps
        # the sweep's frame alive, so the scope must close when the pass
        # ends, not when the frame is collected.
        builds = []
        build = sweep_module._build_recycling
        monkeypatch.setattr(
            sweep_module, "_build_recycling", lambda job: builds.append(job) or build(job)
        )
        store = open_store(tmp_path / "store")
        STORAGE_POOL.put(("held before the pass",), object())
        try:
            with pytest.raises(KeyboardInterrupt) as aborted:
                run_sweep(sweep_trace, grid_jobs, store=store, on_result=_abort)
            assert aborted.traceback
            assert builds == [grid_jobs[0]]
            assert len(store) == 1
            held = [key for key, free in STORAGE_POOL._free.items() for _ in free]
            assert STORAGE_POOL._before == {}
            assert ("held before the pass",) not in held and len(held) <= 1
        finally:
            STORAGE_POOL.clear()

    def test_sequential_stream_pooled_identity(self):
        # A second workload family, cheap but distinct.
        trace = SequentialStream(stride=4, region_bytes=1 << 13).generate(10_000, seed=2)
        jobs = build_grid_jobs([8, 32], [2], [1, 2, 4, 8])
        serial = run_sweep(trace, jobs)
        assert run_sweep(trace, jobs, workers=2).as_rows() == serial.as_rows()
        assert_matches_per_job(serial, trace, jobs)


@pytest.fixture(scope="module")
def mixed_jobs():
    """A grid mixing every capability combination in one sweep.

    dew (no types) + single via the random policy (types) + victim-cache
    (no types) + stream-buffer (types), so the fused executor must route
    chunks with and without their access types side by side within each
    batch.
    """
    jobs = build_grid_jobs([8, 16], [1, 2], (1, 2, 4), policies=("fifo", "random"))
    return jobs + build_mechanism_grid_jobs(
        ["victim-cache", "stream-buffer"],
        [8, 16],
        [1, 2],
        (1, 2, 4),
        entry_counts=(2, 4),
    )


@pytest.fixture(scope="module")
def typed_trace(sweep_trace) -> Trace:
    """``sweep_trace`` with every third access a write, so the stream
    buffer's type-sensitive path (stores never allocate) is exercised."""
    types = np.zeros(len(sweep_trace), dtype=np.int8)
    types[::3] = int(AccessType.WRITE)
    return Trace(sweep_trace.addresses, types, sweep_trace.sizes, name="typed")


class TestMixedEngineSweeps:
    def test_grid_is_heterogeneous(self, mixed_jobs):
        type_flags = {get_engine_class(job.engine).wants_access_types for job in mixed_jobs}
        assert type_flags == {True, False}

    def test_fused_matches_per_job(self, typed_trace, mixed_jobs):
        assert_matches_per_job(run_sweep(typed_trace, mixed_jobs), typed_trace, mixed_jobs)

    def test_parallel_matches_serial(self, typed_trace, mixed_jobs):
        serial = run_sweep(typed_trace, mixed_jobs)
        parallel = run_sweep(typed_trace, mixed_jobs, workers=2)
        assert parallel.as_rows() == serial.as_rows()

    def test_store_resume_byte_identity(self, tmp_path, typed_trace, mixed_jobs):
        store = open_store(tmp_path / "store")
        cold = run_sweep(typed_trace, mixed_jobs, store=store)
        assert cold.executed_jobs == len(mixed_jobs)
        warm = run_sweep(typed_trace, mixed_jobs, store=store)
        assert warm.executed_jobs == 0
        assert warm.as_rows() == cold.as_rows()
        # Evict one mechanism artifact: only that cell re-runs, byte-identical.
        fingerprint = typed_trace.fingerprint()
        mechanism_positions = [
            index
            for index, job in enumerate(mixed_jobs)
            if job.engine == "stream-buffer"
        ]
        assert store.delete(mixed_jobs[mechanism_positions[0]].store_key(fingerprint))
        partial = run_sweep(typed_trace, mixed_jobs, store=store)
        assert partial.executed_jobs == 1
        assert partial.cached_jobs == len(mixed_jobs) - 1
        assert partial.as_rows() == cold.as_rows()

    def test_pooled_store_resume_reruns_one_cell(self, tmp_path, typed_trace, mixed_jobs):
        store = open_store(tmp_path / "store")
        cold = run_sweep(typed_trace, mixed_jobs, store=store, workers=2)
        assert cold.executed_jobs == len(mixed_jobs)
        assert store.delete(mixed_jobs[-1].store_key(typed_trace.fingerprint()))
        warm = run_sweep(typed_trace, mixed_jobs, store=store, workers=2)
        assert warm.executed_jobs == 1
        assert warm.cached_jobs == len(mixed_jobs) - 1
        assert warm.as_rows() == cold.as_rows()

    def test_merged_keeps_mechanism_rows_distinct(self, typed_trace, mixed_jobs):
        merged = run_sweep(typed_trace, mixed_jobs).merged()
        rows = merged.as_rows()
        mechanisms = {row.get("mechanism", "none") for row in rows}
        assert mechanisms == {"none", "victim-cache", "stream-buffer"}
        # A mechanism row never collides with its bare-cache counterpart.
        bare = [row for row in rows if "mechanism" not in row]
        augmented = [row for row in rows if "mechanism" in row]
        assert len(bare) + len(augmented) == len(rows)
        assert augmented  # the mechanism cells actually landed


class TestSweepCli:
    def test_cli_pooled_is_byte_identical(self, tmp_path, capsys):
        trace_path = tmp_path / "t.csv"
        trace = WorkingSetGenerator().generate(1500, seed=4)
        from repro.trace.textio import write_text_trace

        write_text_trace(trace, trace_path, fmt="csv")
        args = [
            "sweep", str(trace_path), "--block-sizes", "8,16",
            "--associativities", "1,2", "--max-sets", "32", "--policies", "fifo,lru",
        ]
        assert main(args) == 0
        serial_out = capsys.readouterr().out
        assert main(args + ["--workers", "2"]) == 0
        pooled_out = capsys.readouterr().out
        assert serial_out == pooled_out
