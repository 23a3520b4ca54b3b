"""Tests for the fused single-pass sweep executor and run-length collapse.

The contract under test is *byte-identity*: the fused executor (shared
decode, run-length collapse, frame-native finalize) must produce exactly the
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
    merge_results,
    run_sweep,
)
from repro.engine.sweep import _partition_fused_batches
from repro.errors import EngineError, ReproError
from repro.store import open_store
from repro.trace.trace import DEFAULT_CHUNK_SIZE, Trace, collapse_block_runs
from repro.types import AccessType
from repro.workloads.synthetic import SequentialStream, WorkingSetGenerator

SET_SIZES = (1, 2, 4, 8, 16, 32)


def assert_matches_per_job(outcome, trace, jobs, chunk_size=DEFAULT_CHUNK_SIZE):
    """``outcome`` equals the per-job reference: each job's own ``Engine.run``.

    Compares the merged rows and JSON plus every job's work counters
    (``DewCounters`` including ``evaluations_per_level``).
    """
    reference = [job.build().run(trace, chunk_size=chunk_size) for job in jobs]
    merged = merge_results(reference, trace_name=outcome.trace_name)
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


class TestCollapseBlockRuns:
    def test_empty(self):
        values, counts = collapse_block_runs(np.empty(0, dtype=np.int64))
        assert values.size == 0 and counts.size == 0

    def test_single_run(self):
        values, counts = collapse_block_runs([7, 7, 7, 7])
        assert values.tolist() == [7]
        assert counts.tolist() == [4]

    def test_alternating(self):
        values, counts = collapse_block_runs([1, 2, 1, 2])
        assert values.tolist() == [1, 2, 1, 2]
        assert counts.tolist() == [1, 1, 1, 1]

    @given(blocks=st.lists(st.integers(min_value=0, max_value=7), max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_repeat_reconstructs_input(self, blocks):
        values, counts = collapse_block_runs(blocks)
        assert np.repeat(values, counts).tolist() == blocks
        # Maximal runs: no two consecutive collapsed values are equal.
        assert all(a != b for a, b in zip(values[:-1], values[1:]))

    def test_iter_block_runs_matches_chunks(self):
        trace = SequentialStream(stride=4).generate(1000, seed=0)
        rebuilt = []
        for values, counts in trace.iter_block_runs(4, chunk_size=77):
            rebuilt.extend(np.repeat(values, counts).tolist())
        expected = []
        for chunk in trace.iter_block_chunks(4, chunk_size=77):
            expected.extend(chunk.tolist())
        assert rebuilt == expected


class TestDewEngineCollapse:
    def test_non_run_engines_reject_collapsed_chunks(self):
        engine = get_engine("dew", block_size=16, associativity=4, set_sizes=SET_SIZES)
        assert not engine.supports_block_runs
        with pytest.raises(EngineError, match="run-length"):
            engine.run_block_runs([1], [3])


class TestFinalizeFrame:
    def test_dew_finalize_frame_matches_finalize(self, sweep_trace):
        engine = get_engine("dew", block_size=16, associativity=4, set_sizes=SET_SIZES)
        engine.run(sweep_trace)
        frame = engine.finalize_frame(trace_name="t")
        results = engine.finalize(trace_name="t")
        assert [r.as_dict() for r in frame] == results.as_rows()
        assert frame.simulator_name == "dew"

    def test_single_finalize_frame_matches_finalize(self, sweep_trace):
        from repro.core.config import CacheConfig

        engine = get_engine("single", config=CacheConfig(8, 2, 16))
        engine.run(sweep_trace)
        frame = engine.finalize_frame(trace_name="t")
        results = engine.finalize(trace_name="t")
        assert [r.as_dict() for r in frame] == results.as_rows()

    def test_default_finalize_frame_adapts_finalize(self, sweep_trace):
        engine = get_engine(
            "janapsatya", block_size=16, associativities=(1, 2), set_sizes=(1, 2, 4)
        )
        engine.run(sweep_trace)
        frame = engine.finalize_frame(trace_name="t")
        assert [r.as_dict() for r in frame] == engine.finalize(trace_name="t").as_rows()


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
        assert warm_fused.as_rows() == merge_results(per_job).as_rows()


def _abort(index, job, results, cached):
    raise KeyboardInterrupt


class TestPooledSweep:
    """The pooled path: one fused batch per worker, each deriving its own
    shift and run-length arrays from the trace it was handed."""

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

    def test_aborting_hook_propagates_serial_and_pooled(self, sweep_trace, grid_jobs):
        for workers in (1, 2):
            with pytest.raises(KeyboardInterrupt):
                run_sweep(sweep_trace, grid_jobs, workers=workers, on_result=_abort)

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

    dew (no runs, no types) + single via the random policy (no runs, types) +
    victim-cache (runs, no types) + stream-buffer (runs *and* types), so the
    fused executor must route raw chunks, collapsed chunks and per-run head
    types side by side within each batch.
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
        run_flags = {get_engine_class(job.engine).supports_block_runs for job in mixed_jobs}
        type_flags = {get_engine_class(job.engine).wants_access_types for job in mixed_jobs}
        assert run_flags == {True, False}
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


class TestLruRunLengthOracle:
    """Janapsatya run consumption must be byte-identical to the raw walk.

    Replay the identical access stream once through ``run_blocks`` on raw
    chunks and once through ``run_block_runs`` on the collapsed chunks,
    then compare every result row *and* every work counter.
    """

    @staticmethod
    def _drive_raw(engine, trace, chunk_size):
        for blocks in trace.iter_block_chunks(engine.offset_bits, chunk_size):
            engine.run_blocks(blocks)
        return engine.finalize(trace_name="oracle")

    @staticmethod
    def _drive_runs(engine, trace, chunk_size):
        for values, counts in trace.iter_block_runs(engine.offset_bits, chunk_size):
            engine.run_block_runs(values, counts)
        return engine.finalize(trace_name="oracle")

    @given(
        addresses=st.lists(st.integers(min_value=0, max_value=255), max_size=150),
        use_mru_stop=st.booleans(),
        chunk_size=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=60, deadline=None)
    def test_janapsatya_runs_match_raw(self, addresses, use_mru_stop, chunk_size):
        trace = Trace(addresses) if addresses else Trace.empty()
        kwargs = dict(
            block_size=8, associativities=(1, 2, 4), set_sizes=(1, 2, 4, 8),
            use_mru_stop=use_mru_stop,
        )
        raw = get_engine("janapsatya", **kwargs)
        runs = get_engine("janapsatya", **kwargs)
        raw_results = self._drive_raw(raw, trace, chunk_size)
        runs_results = self._drive_runs(runs, trace, chunk_size)
        assert runs_results.as_rows() == raw_results.as_rows()
        assert (
            runs.counters.as_dict() == raw.counters.as_dict()
        )

    def test_lru_engines_advertise_run_support(self):
        jan = get_engine("janapsatya", block_size=8, associativities=(2,), set_sizes=(1, 2))
        assert jan.supports_block_runs

    def test_single_block_trace_lru(self):
        """One long run: one walk plus pure bulk MRU-hit accounting."""
        from repro.lru.janapsatya import JanapsatyaSimulator

        raw = JanapsatyaSimulator(16, (1, 2), (1, 2, 4))
        runs = JanapsatyaSimulator(16, (1, 2), (1, 2, 4))
        raw.run_blocks([9] * 500)
        runs.run_block_runs([9], [500])
        assert runs.counters.as_dict() == raw.counters.as_dict()
        assert runs.finalize().as_rows() == raw.finalize().as_rows()

    def test_lru_run_validation(self):
        from repro.errors import SimulationError
        from repro.lru.janapsatya import JanapsatyaSimulator

        simulator = JanapsatyaSimulator(8, (1,), (1, 2))
        with pytest.raises(SimulationError, match="mismatch"):
            simulator.run_block_runs([1, 2], [3])
        with pytest.raises(SimulationError, match="positive"):
            simulator.run_block_runs([1, 2], [1, 0])
