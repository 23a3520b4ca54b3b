"""Tests for the content-addressed result store and incremental sweeps."""

import json

import pytest

from repro.cli import main
from repro.core.config import CacheConfig
from repro.core.results import ConfigResult, ResultsFrame
from repro.engine import SweepJob, build_grid_jobs, run_sweep
from repro.errors import StoreError
from repro.store import STORE_SCHEMA_VERSION, ResultStore, StoreKey, open_store
from repro.types import ReplacementPolicy

GRID = dict(
    block_sizes=[8, 16],
    associativities=[1, 2],
    set_sizes=(1, 2, 4, 8),
    policies=("fifo", "lru"),
)


def _results(misses=5):
    return ResultsFrame.from_results(
        [ConfigResult(CacheConfig(4, 2, 16), accesses=50, misses=misses)],
        elapsed_seconds=0.25,
        simulator_name="dew",
        trace_name="t",
    )


def _key(fingerprint="f" * 64, engine="dew", **options):
    return StoreKey.make(fingerprint, engine, options or {"block_size": 16})


class TestStoreKeys:
    def test_list_and_tuple_options_share_a_digest(self):
        a = StoreKey.make("fp", "dew", {"set_sizes": [1, 2, 4], "block_size": 16})
        b = StoreKey.make("fp", "dew", {"set_sizes": (1, 2, 4), "block_size": 16})
        assert a == b
        assert a.digest == b.digest

    def test_policy_string_and_enum_share_a_digest(self):
        # Canonicalization happens in SweepJob.make; equal jobs => equal keys.
        a = SweepJob.make("single", policy="FIFO", num_sets=4, associativity=1, block_size=8)
        b = SweepJob.make("single", policy=ReplacementPolicy.FIFO,
                          num_sets=4, associativity=1, block_size=8)
        assert a == b
        assert a.store_key("fp").digest == b.store_key("fp").digest

    def test_different_options_different_digest(self):
        assert _key(block_size=16).digest != _key(block_size=32).digest
        assert _key(engine="dew").digest != _key(engine="janapsatya").digest
        assert _key("a" * 64).digest != _key("b" * 64).digest

    def test_config_option_is_canonical(self):
        config = CacheConfig(4, 2, 8, ReplacementPolicy.RANDOM)
        a = StoreKey.make("fp", "single", {"config": config, "seed": 0})
        b = StoreKey.make("fp", "single", {"config": config, "seed": 0})
        assert a.digest == b.digest
        assert "__config__" in a.options_json


class TestResultStore:
    def test_open_creates_layout_and_reopens(self, tmp_path):
        root = tmp_path / "store"
        store = open_store(root)
        assert (root / "store.json").is_file()
        assert json.loads((root / "store.json").read_text())["schema"] == STORE_SCHEMA_VERSION
        again = open_store(root)
        assert isinstance(again, ResultStore)

    def test_incompatible_schema_rejected(self, tmp_path):
        root = tmp_path / "store"
        open_store(root)
        (root / "store.json").write_text(json.dumps({"schema": 999}))
        with pytest.raises(StoreError, match="schema"):
            open_store(root)

    def test_put_get_round_trip(self, tmp_path):
        store = open_store(tmp_path)
        key = _key()
        assert store.get(key) is None
        assert store.miss_count == 1
        store.put(key, _results())
        assert store.contains(key)
        loaded = store.get(key)
        assert loaded is not None
        assert store.hit_count == 1
        assert loaded.as_rows() == _results().as_rows()
        assert loaded.elapsed_seconds == 0.25
        assert len(store) == 1

    def test_corrupt_artifact_is_a_miss(self, tmp_path):
        store = open_store(tmp_path)
        key = _key()
        path = store.put(key, _results())
        path.write_bytes(b"garbage, not an npz payload")
        assert store.get(key) is None
        assert store.corrupt_count == 1
        # A fresh put repairs the slot.
        store.put(key, _results())
        assert store.get(key) is not None

    def test_mis_addressed_artifact_is_a_miss(self, tmp_path):
        store = open_store(tmp_path)
        first, second = _key(block_size=16), _key(block_size=32)
        path = store.put(first, _results())
        # Copy the artifact under the wrong address.
        other_path = store.path_for(second)
        other_path.parent.mkdir(parents=True, exist_ok=True)
        other_path.write_bytes(path.read_bytes())
        assert store.get(second) is None
        assert store.corrupt_count == 1

    def test_counters_survive_the_round_trip(self, tmp_path, cjpeg_trace):
        from repro.engine import get_engine

        engine = get_engine("dew", block_size=16, associativity=2, set_sizes=(1, 2, 4))
        results = engine.run(cjpeg_trace)
        assert results.counters.requests == len(cjpeg_trace)
        store = open_store(tmp_path)
        key = _key()
        store.put(key, results)
        loaded = store.get(key)
        assert loaded is not None
        assert loaded.counters.requests == results.counters.requests
        assert loaded.counters.tag_comparisons == results.counters.tag_comparisons
        assert loaded.counters.evaluations_per_level == results.counters.evaluations_per_level

    def test_artifact_paths_skip_temp_files(self, tmp_path):
        store = open_store(tmp_path)
        path = store.put(_key(), _results())
        (path.parent / ".tmp-deadbeef-orphan.npz").write_bytes(b"partial write")
        assert len(store) == 1
        assert list(store.artifact_paths()) == [path]

    def test_delete(self, tmp_path):
        store = open_store(tmp_path)
        key = _key()
        store.put(key, _results())
        assert store.delete(key) is True
        assert store.delete(key) is False
        assert store.get(key) is None


class TestIncrementalSweep:
    def test_warm_run_executes_zero_jobs_and_matches_cold(self, cjpeg_trace, tmp_path):
        store = open_store(tmp_path)
        jobs = build_grid_jobs(**GRID)
        cold = run_sweep(cjpeg_trace, jobs, store=store)
        assert cold.executed_jobs == len(jobs)
        assert cold.cached_jobs == 0
        warm = run_sweep(cjpeg_trace, jobs, store=store)
        assert warm.executed_jobs == 0
        assert warm.cached_jobs == len(jobs)
        assert warm.as_rows() == cold.as_rows()
        assert warm.merged().to_json() == cold.merged().to_json()

    def test_deleting_one_artifact_reruns_exactly_that_job(self, cjpeg_trace, tmp_path):
        store = open_store(tmp_path)
        jobs = build_grid_jobs(**GRID)
        cold = run_sweep(cjpeg_trace, jobs, store=store)
        victim = jobs[3]
        assert store.delete(victim.store_key(cjpeg_trace.fingerprint()))
        resumed = run_sweep(cjpeg_trace, jobs, store=store)
        assert resumed.executed_jobs == 1
        assert resumed.cached_jobs == len(jobs) - 1
        assert resumed.as_rows() == cold.as_rows()

    def test_resume_after_kill_equivalence(self, cjpeg_trace, tmp_path):
        """A sweep killed partway resumes paying only for unfinished jobs."""
        store = open_store(tmp_path)
        jobs = build_grid_jobs(**GRID)
        # Simulate the killed sweep: only a prefix of jobs completed (each
        # artifact is persisted the moment its job finishes, so a kill
        # leaves exactly a subset on disk).
        partial = run_sweep(cjpeg_trace, jobs[:3], store=store)
        assert partial.executed_jobs == 3
        resumed = run_sweep(cjpeg_trace, jobs, store=store)
        assert resumed.cached_jobs == 3
        assert resumed.executed_jobs == len(jobs) - 3
        cold = run_sweep(cjpeg_trace, jobs)  # storeless reference
        assert resumed.as_rows() == cold.as_rows()

    def test_force_reexecutes_everything(self, cjpeg_trace, tmp_path):
        store = open_store(tmp_path)
        jobs = build_grid_jobs(**GRID)
        run_sweep(cjpeg_trace, jobs, store=store)
        forced = run_sweep(cjpeg_trace, jobs, store=store, force=True)
        assert forced.executed_jobs == len(jobs)
        assert forced.cached_jobs == 0

    def test_parallel_store_sweep_matches_serial(self, cjpeg_trace, tmp_path):
        jobs = build_grid_jobs(**GRID)
        serial = run_sweep(cjpeg_trace, jobs, store=open_store(tmp_path / "a"))
        parallel = run_sweep(cjpeg_trace, jobs, workers=3, store=open_store(tmp_path / "b"))
        assert parallel.as_rows() == serial.as_rows()
        warm = run_sweep(cjpeg_trace, jobs, workers=3, store=open_store(tmp_path / "b"))
        assert warm.executed_jobs == 0
        assert warm.as_rows() == serial.as_rows()

    def test_store_accepts_path_argument(self, cjpeg_trace, tmp_path):
        jobs = build_grid_jobs([16], [2], (1, 2, 4))
        first = run_sweep(cjpeg_trace, jobs, store=tmp_path / "s")
        second = run_sweep(cjpeg_trace, jobs, store=str(tmp_path / "s"))
        assert second.executed_jobs == 0
        assert second.as_rows() == first.as_rows()

    def test_different_traces_do_not_share_cells(self, cjpeg_trace, loop_trace, tmp_path):
        store = open_store(tmp_path)
        jobs = build_grid_jobs([16], [2], (1, 2, 4))
        run_sweep(cjpeg_trace, jobs, store=store)
        other = run_sweep(loop_trace, jobs, store=store)
        assert other.executed_jobs == len(jobs)

    def test_renamed_identical_trace_shares_cells(self, cjpeg_trace, tmp_path):
        store = open_store(tmp_path)
        jobs = build_grid_jobs([16], [2], (1, 2, 4))
        run_sweep(cjpeg_trace, jobs, store=store)
        renamed = run_sweep(cjpeg_trace.with_name("other"), jobs, store=store)
        assert renamed.executed_jobs == 0


class TestHarnessStore:
    def test_sweep_app_is_incremental(self, tmp_path):
        from repro.bench.harness import ExperimentRunner

        kwargs = dict(
            apps=["cjpeg"], block_sizes=(8, 16), associativities=(1, 2),
            set_sizes=(1, 2, 4), max_requests=1500, seed=7,
            store=tmp_path / "store",
        )
        cold = ExperimentRunner(**kwargs).sweep_app("cjpeg")
        warm = ExperimentRunner(**kwargs).sweep_app("cjpeg")
        assert cold.executed_jobs > 0
        assert warm.executed_jobs == 0
        assert warm.as_rows() == cold.as_rows()


class TestCliStore:
    @pytest.fixture
    def din_path(self, tmp_path):
        path = tmp_path / "tiny.din"
        assert main(["generate", "cjpeg", str(path), "--requests", "1200"]) == 0
        return path

    def _sweep_args(self, din_path, store_dir):
        return [
            "sweep", str(din_path), "--block-sizes", "8,16",
            "--associativities", "1,2", "--max-sets", "8",
            "--policies", "fifo,lru", "--store", str(store_dir),
        ]

    def test_cold_and_warm_stdout_byte_identical(self, din_path, tmp_path, capsys):
        arguments = self._sweep_args(din_path, tmp_path / "store")
        assert main(arguments) == 0
        cold = capsys.readouterr()
        assert main(arguments) == 0
        warm = capsys.readouterr()
        assert warm.out == cold.out
        assert "0 executed" in warm.err

    def test_json_format_parses_and_is_stable(self, din_path, tmp_path, capsys):
        arguments = self._sweep_args(din_path, tmp_path / "store") + ["--format", "json"]
        assert main(arguments) == 0
        cold = capsys.readouterr().out
        assert main(arguments) == 0
        warm = capsys.readouterr().out
        assert warm == cold
        payload = json.loads(cold)
        rows = payload["configurations"]
        assert rows == sorted(
            rows,
            key=lambda r: (r["num_sets"], r["associativity"], r["block_size"], r["policy"]),
        )

    def test_force_flag(self, din_path, tmp_path, capsys):
        arguments = self._sweep_args(din_path, tmp_path / "store")
        assert main(arguments) == 0
        capsys.readouterr()
        assert main(arguments + ["--force"]) == 0
        assert "0 executed" not in capsys.readouterr().err
