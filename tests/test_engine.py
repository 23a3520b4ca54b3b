"""Tests for the unified engine layer: registry, engines, chunking, sweeps."""

import gzip
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from engine_options import ENGINE_TEST_OPTIONS

import repro
from repro.cache.simulator import SingleConfigSimulator
from repro.cli import main
from repro.core.config import CacheConfig
from repro.core.dew import DewSimulator
from repro.core.results import ConfigResult, SimulationResults
from repro.engine import (
    Engine,
    SweepJob,
    available_engines,
    build_grid_jobs,
    get_engine,
    get_engine_class,
    merge_results,
    run_sweep,
)
from repro.errors import EngineError, TraceError, VerificationError
from repro.lru.janapsatya import JanapsatyaSimulator
from repro.trace.trace import Trace
from repro.types import ReplacementPolicy

SET_SIZES = (1, 2, 4, 8, 16)


class TestRegistry:
    def test_expected_engines_registered(self):
        keys = available_engines()
        for expected in (
            "dew",
            "single",
            "janapsatya",
            "miss-cache",
            "stream-buffer",
            "victim-cache",
        ):
            assert expected in keys
        # The simulators are the engines themselves.
        assert get_engine_class("dew") is DewSimulator
        assert get_engine_class("single") is SingleConfigSimulator
        assert get_engine_class("janapsatya") is JanapsatyaSimulator

    def test_importing_the_registry_registers_every_engine(self):
        # Each engine registers when its module is imported; importing the
        # registry alone, in a fresh interpreter, must register all six.
        src = str(Path(repro.__file__).resolve().parents[1])
        completed = subprocess.run(
            [
                sys.executable,
                "-c",
                "from repro.engine.base import available_engines; print(available_engines())",
            ],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        assert completed.stdout.strip() == str(
            ["dew", "janapsatya", "miss-cache", "single", "stream-buffer", "victim-cache"]
        )

    def test_unknown_engine_raises(self):
        with pytest.raises(EngineError, match="unknown engine"):
            get_engine("definitely-not-registered")

    def test_get_engine_returns_fresh_instances(self):
        first = get_engine("dew", block_size=16, associativity=2, set_sizes=SET_SIZES)
        second = get_engine("dew", block_size=16, associativity=2, set_sizes=SET_SIZES)
        assert first is not second
        assert isinstance(first, Engine)
        assert first.family == "dew"

    def test_duplicate_registration_rejected(self):
        from repro.engine.base import register_engine

        with pytest.raises(EngineError, match="already registered"):
            register_engine("dew")(type(get_engine("dew", block_size=4, associativity=1)))


def _fresh_engine(name):
    return get_engine(name, **ENGINE_TEST_OPTIONS[name])


def _collapsed_feed(engine, trace, chunk_size=32):
    """Feed a trace as per-chunk run-length-collapsed (values, counts) pairs."""
    iterator = trace.iter_block_chunks(
        engine.offset_bits, chunk_size, with_types=engine.wants_access_types
    )
    for chunk in iterator:
        blocks, types = chunk if engine.wants_access_types else (chunk, None)
        boundaries = np.flatnonzero(np.diff(blocks)) + 1
        starts = np.concatenate(([0], boundaries))
        counts = np.diff(np.concatenate((starts, [blocks.size])))
        if types is None:
            engine.run_block_runs(blocks[starts], counts)
        else:
            engine.run_block_runs(blocks[starts], counts, types[starts])


class TestRegistryDriven:
    """Universal properties every registered engine must satisfy.

    Parametrized over ``available_engines()`` with options looked up in
    :data:`engine_options.ENGINE_TEST_OPTIONS` — a newly registered engine joins
    this surface automatically (and fails loudly until it gets options).
    """

    def test_every_engine_has_test_options(self):
        assert set(available_engines()) == set(ENGINE_TEST_OPTIONS)

    @pytest.mark.parametrize("name", sorted(ENGINE_TEST_OPTIONS))
    def test_construction_and_capability_flags(self, name):
        engine = _fresh_engine(name)
        assert isinstance(engine, Engine)
        assert engine.family == name
        assert engine.offset_bits >= 0
        cls = get_engine_class(name)
        assert cls.supports_block_runs == engine.supports_block_runs
        assert cls.wants_access_types == engine.wants_access_types

    @pytest.mark.parametrize("name", sorted(ENGINE_TEST_OPTIONS))
    @pytest.mark.parametrize("chunk_size", [1, 7, 100_000])
    def test_chunk_size_invariance(self, name, chunk_size, mixed_trace):
        baseline = _fresh_engine(name).run(mixed_trace, chunk_size=64)
        probe = _fresh_engine(name).run(mixed_trace, chunk_size=chunk_size)
        assert probe.as_rows() == baseline.as_rows()

    @pytest.mark.parametrize("name", sorted(ENGINE_TEST_OPTIONS))
    def test_finalize_frame_agrees_with_finalize(self, name, loop_trace):
        engine = _fresh_engine(name)
        engine.run(loop_trace)
        frame_rows = SimulationResults.from_frame(
            engine.finalize_frame(loop_trace.name)
        ).as_rows()
        assert frame_rows == engine.finalize(trace_name=loop_trace.name).as_rows()

    @pytest.mark.parametrize("name", sorted(ENGINE_TEST_OPTIONS))
    def test_block_runs_parity_or_loud_rejection(self, name, loop_trace):
        engine = _fresh_engine(name)
        if not engine.supports_block_runs:
            with pytest.raises(EngineError, match="run-length"):
                engine.run_block_runs([0], [1])
            return
        _collapsed_feed(engine, loop_trace, chunk_size=37)
        raw = _fresh_engine(name).run(loop_trace, chunk_size=37)
        assert engine.finalize(trace_name=loop_trace.name).as_rows() == raw.as_rows()

    @pytest.mark.parametrize("name", sorted(ENGINE_TEST_OPTIONS))
    def test_reset_reproduces_first_run(self, name, loop_trace):
        engine = _fresh_engine(name)
        first = engine.run(loop_trace).as_rows()
        engine.reset()
        assert engine.run(loop_trace).as_rows() == first

    @pytest.mark.parametrize("name", sorted(ENGINE_TEST_OPTIONS))
    def test_sweep_job_round_trips(self, name):
        import pickle

        job = SweepJob.make(name, **ENGINE_TEST_OPTIONS[name])
        assert pickle.loads(pickle.dumps(job)) == job
        assert name in job.label()


class TestDewEngine:
    @pytest.mark.parametrize("chunk_size", [1, 7, 100_000])
    def test_chunk_size_invariance(self, mixed_trace, chunk_size):
        baseline = DewSimulator(16, 4, SET_SIZES).run(mixed_trace)
        engine = get_engine("dew", block_size=16, associativity=4, set_sizes=SET_SIZES)
        results = engine.run(mixed_trace, chunk_size=chunk_size)
        assert not results.diff(baseline)

    def test_counters_match_per_address_path(self, loop_trace):
        per_address = DewSimulator(16, 4, SET_SIZES)
        for address in loop_trace.address_list():
            per_address.access(address)
        engine = get_engine("dew", block_size=16, associativity=4, set_sizes=SET_SIZES)
        engine.run(loop_trace)
        assert engine.counters.as_dict() == per_address.counters.as_dict()

    def test_run_accepts_bare_iterable(self, small_random_addresses):
        engine = get_engine("dew", block_size=8, associativity=2, set_sizes=(1, 2, 4))
        results = engine.run(iter(small_random_addresses), chunk_size=64)
        assert results.counters.requests == len(small_random_addresses)


class TestSingleEngine:
    def test_matches_simulator(self, mixed_trace):
        config = CacheConfig(8, 2, 16, ReplacementPolicy.LRU)
        direct = SingleConfigSimulator(config)
        direct.run(mixed_trace)
        engine = get_engine("single", config=config)
        results = engine.run(mixed_trace, chunk_size=13)
        assert results[config].misses == direct.stats.misses
        assert engine.stats.as_dict() == direct.stats.as_dict()

    def test_config_from_parts(self, loop_trace):
        engine = get_engine(
            "single", num_sets=4, associativity=2, block_size=8, policy="fifo"
        )
        results = engine.run(loop_trace)
        assert engine.config == CacheConfig(4, 2, 8, ReplacementPolicy.FIFO)
        assert len(results) == 1


class TestLruEngines:
    def test_janapsatya_engine_matches_simulator(self, mixed_trace):
        direct = JanapsatyaSimulator(16, (1, 2, 4), SET_SIZES).run(mixed_trace)
        engine = get_engine(
            "janapsatya", block_size=16, associativities=(1, 2, 4), set_sizes=SET_SIZES
        )
        assert not engine.run(mixed_trace, chunk_size=7).diff(direct)


class TestTraceChunking:
    def test_iter_block_chunks_values(self):
        trace = Trace([0, 15, 16, 31, 32, 255], name="t")
        chunks = list(trace.iter_block_chunks(4, chunk_size=4))
        assert [chunk.tolist() for chunk in chunks] == [[0, 0, 1, 1], [2, 15]]

    def test_iter_block_chunks_with_types(self, mixed_trace):
        total = 0
        for blocks, types in mixed_trace.iter_block_chunks(4, 100, with_types=True):
            assert blocks.shape == types.shape
            total += blocks.size
        assert total == len(mixed_trace)

    def test_iter_block_chunks_validation(self, loop_trace):
        with pytest.raises(TraceError):
            list(loop_trace.iter_block_chunks(-1))
        with pytest.raises(TraceError):
            list(loop_trace.iter_block_chunks(2, chunk_size=0))

    def test_address_list_is_memoized(self, loop_trace):
        assert loop_trace.address_list() is loop_trace.address_list()

    def test_block_addresses_are_memoized(self, loop_trace):
        assert loop_trace.block_addresses(16) is loop_trace.block_addresses(16)
        assert loop_trace.block_addresses(16).tolist() == [
            address >> 4 for address in loop_trace.address_list()
        ]


class TestSweep:
    def test_build_grid_jobs_decomposition(self):
        jobs = build_grid_jobs([8, 16], [1, 2, 4], (1, 2, 4), policies=("fifo", "lru", "random"))
        by_engine = {}
        for job in jobs:
            by_engine.setdefault(job.engine, []).append(job)
        # FIFO: one dew job per (B, A>1); LRU: one janapsatya job per B;
        # RANDOM: one single job per configuration.
        assert len(by_engine["dew"]) == 4
        assert len(by_engine["janapsatya"]) == 2
        assert len(by_engine["single"]) == 2 * 3 * 3

    def test_direct_mapped_only_fifo_grid(self):
        jobs = build_grid_jobs([16], [1], (1, 2, 4))
        assert [job.engine for job in jobs] == ["dew"]
        assert dict(jobs[0].options)["associativity"] == 1

    def test_empty_grid_rejected(self):
        with pytest.raises(EngineError):
            build_grid_jobs([], [1], (1, 2))
        with pytest.raises(EngineError):
            run_sweep(Trace([0], name="t"), [])

    def test_serial_and_parallel_sweeps_identical(self, mixed_trace):
        jobs = build_grid_jobs([8, 16], [1, 2, 4], SET_SIZES, policies=("fifo", "lru"))
        serial = run_sweep(mixed_trace, jobs, workers=1)
        parallel = run_sweep(mixed_trace, jobs, workers=3)
        assert serial.workers == 1
        assert parallel.workers == 3
        assert serial.as_rows() == parallel.as_rows()

    def test_merged_results_match_reference(self, loop_trace):
        jobs = build_grid_jobs([16], [1, 2], (1, 2, 4), policies=("fifo",))
        merged = run_sweep(loop_trace, jobs).merged()
        for config in merged.configs():
            reference = SingleConfigSimulator(config)
            reference.run(loop_trace)
            assert reference.stats.misses == merged[config].misses, config.label()

    def test_merge_detects_conflicts(self):
        config = CacheConfig(2, 2, 16)
        first = SimulationResults([ConfigResult(config, accesses=10, misses=4)])
        second = SimulationResults([ConfigResult(config, accesses=10, misses=5)])
        with pytest.raises(VerificationError, match="disagree"):
            merge_results([first, second])
        # Identical duplicates (e.g. shared direct-mapped results) are fine.
        merged = merge_results(
            [first, SimulationResults([ConfigResult(config, accesses=10, misses=4)])]
        )
        assert merged[config].misses == 4

    def test_sweep_job_is_picklable(self):
        import pickle

        job = SweepJob.make("dew", block_size=16, associativity=4, set_sizes=(1, 2))
        assert pickle.loads(pickle.dumps(job)) == job
        assert "dew" in job.label()


class TestHarnessWorkers:
    def test_parallel_table3_matches_serial(self):
        from repro.bench.harness import ExperimentRunner

        def cell_keys(cells):
            deterministic = (
                "app", "block_size", "associativity", "requests",
                "dew_comparisons", "dinero_comparisons", "configs_simulated", "exact_match",
            )
            return [{key: cell.as_dict()[key] for key in deterministic} for cell in cells]

        kwargs = dict(
            apps=["cjpeg"], block_sizes=(4, 16), associativities=(2, 4),
            set_sizes=(1, 2, 4, 8), max_requests=1500, seed=7,
        )
        serial = ExperimentRunner(**kwargs).run_table3()
        parallel = ExperimentRunner(**kwargs).run_table3(workers=2)
        assert cell_keys(serial) == cell_keys(parallel)


class TestCliSweep:
    @pytest.fixture
    def din_path(self, tmp_path):
        path = tmp_path / "tiny.din"
        assert main(["generate", "cjpeg", str(path), "--requests", "1200"]) == 0
        return path

    def test_sweep_output_identical_across_workers(self, din_path, capsys):
        arguments = [
            "sweep", str(din_path), "--block-sizes", "8,16",
            "--associativities", "1,2", "--max-sets", "16", "--policies", "fifo,lru",
        ]
        assert main(arguments + ["--workers", "1"]) == 0
        serial_out = capsys.readouterr().out
        assert main(arguments + ["--workers", "2"]) == 0
        parallel_out = capsys.readouterr().out
        assert serial_out == parallel_out
        assert "configurations" in serial_out

    def test_gzipped_trace_loads(self, din_path, tmp_path, capsys):
        gz_path = tmp_path / "tiny.din.gz"
        gz_path.write_bytes(gzip.compress(din_path.read_bytes()))
        assert main(["dew", str(gz_path), "--block-size", "16",
                     "--associativity", "2", "--max-sets", "16"]) == 0
        assert "DEW:" in capsys.readouterr().out

    def test_missing_trace_is_clean_error(self, capsys):
        assert main(["dew", "/no/such/trace.din"]) == 2
        err = capsys.readouterr().err
        assert "trace file not found" in err
        assert "Traceback" not in err

    def test_corrupt_gzip_is_clean_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.din.gz"
        bad.write_bytes(b"this is not gzip data")
        assert main(["dew", str(bad)]) == 2
        assert "could not read trace file" in capsys.readouterr().err
