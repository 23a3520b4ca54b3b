"""Tests for the trace plane a sweep's processes share.

The plane is a cache-attached :class:`~repro.trace.planecache.CachedPlane`:
the three trace columns as read-only views of one mmap'd artifact, so every
process that attaches it reads the same page-cache pages.  A pool worker
receives it as the artifact's path and derives its shift and run-length
arrays from the mapped addresses, exactly as it would from an in-memory
:class:`Trace`.

Two properties carry the feature:

1. **Byte-identity** — rows and merged JSON are identical whether a sweep
   runs serially or pooled, over an in-memory trace or over the plane, with
   workers that inherit the plane (``fork``) or unpickle it (``spawn``).
2. **Compact hand-off** — what a pool worker is sent is a few hundred bytes
   regardless of trace length, and the arrays it derives are the ones the
   parent would compute locally.
"""

from __future__ import annotations

import multiprocessing
import pickle

import numpy as np
import pytest

from repro.engine.sweep import (
    FusedSweepExecutor,
    _fused_worker_run,
    _partition_fused_batches,
    _sweep_worker_init,
    build_grid_jobs,
    build_mechanism_grid_jobs,
    merge_results,
    run_sweep,
)
from repro.trace.planecache import CachedPlane, open_plane_cache
from repro.trace.trace import DEFAULT_CHUNK_SIZE, Trace, collapse_block_runs
from repro.types import AccessType
from repro.workloads.synthetic import WorkingSetGenerator


def _trace(length=20_000, seed=5):
    trace = WorkingSetGenerator(hot_bytes=4096, cold_bytes=1 << 16).generate(
        length, seed=seed
    )
    # Every third access a write, so type-sensitive engines see both kinds.
    types = np.zeros(length, dtype=np.int8)
    types[::3] = int(AccessType.WRITE)
    return Trace(trace.addresses, types, trace.sizes, name="plane")


def _jobs():
    return build_grid_jobs(
        [16, 64], [2, 4], [2**i for i in range(5)], policies=["fifo", "lru", "random"]
    )


def _mixed_jobs():
    """dew + victim-cache + stream-buffer: heterogeneous runs/types flags."""
    jobs = build_grid_jobs([16, 64], [2], [1, 2, 4], policies=["fifo"])
    return jobs + build_mechanism_grid_jobs(
        ["victim-cache", "stream-buffer"], [16, 64], [2], [1, 2], entry_counts=(2, 4)
    )


@pytest.fixture()
def cache(tmp_path):
    return open_plane_cache(tmp_path / "pc")


def _assert_same_outcome(outcome, base, label):
    assert outcome.as_rows() == base.as_rows(), label
    assert outcome.merged().to_json() == base.merged().to_json(), label


def _spawn_pooled(plane, jobs, workers=2):
    """Run ``jobs`` the way ``run_sweep`` pools them, under ``spawn``.

    ``run_sweep`` uses the platform's default start method; ``spawn`` is the
    one that pickles the initializer's arguments, so this is the path on
    which workers receive the plane by its artifact path.
    """
    context = multiprocessing.get_context("spawn")
    results = [None] * len(jobs)
    with context.Pool(
        workers, initializer=_sweep_worker_init, initargs=(plane, jobs, DEFAULT_CHUNK_SIZE)
    ) as pool:
        for positions, batch in pool.imap_unordered(
            _fused_worker_run, _partition_fused_batches(jobs, workers)
        ):
            for position, fresh in zip(positions, batch):
                results[position] = fresh
    return merge_results(results, trace_name=plane.name)


class TestPlanePublication:
    def test_plane_serves_the_locally_computed_arrays(self, cache):
        trace = _trace(5_000)
        chunk = 512
        with cache.ensure(trace) as plane:
            assert isinstance(plane, CachedPlane)
            assert not plane.addresses.flags.writeable
            for start in range(0, len(trace), chunk):
                window = slice(start, start + chunk)
                for offset in (4, 6):
                    local = trace.addresses[window] >> offset
                    blocks = plane.addresses[window] >> offset
                    assert np.array_equal(blocks, local)
                    got = collapse_block_runs(blocks)
                    expected = collapse_block_runs(local)
                    assert np.array_equal(got[0], expected[0])
                    assert np.array_equal(got[1], expected[1])
                assert np.array_equal(
                    plane.access_types[window], trace.access_types[window]
                )
                assert np.array_equal(plane.sizes[window], trace.sizes[window])

    def test_descriptor_is_compact_and_picklable(self, cache):
        trace = _trace(50_000)
        jobs = _jobs()
        with cache.ensure(trace) as plane:
            # What a spawned pool worker is sent: the initializer's arguments.
            blob = pickle.dumps((plane, jobs, DEFAULT_CHUNK_SIZE))
            # The whole point: per-worker transfer is O(#jobs), not O(trace).
            assert len(blob) < 4096
            assert len(pickle.dumps(trace)) > trace.addresses.nbytes
            attached, _, _ = pickle.loads(blob)
            with attached:
                assert isinstance(attached, CachedPlane)
                assert attached.path == plane.path
                assert np.array_equal(attached.addresses >> 4, trace.addresses >> 4)
                assert attached.fingerprint() == trace.fingerprint()


class TestByteIdentity:
    def test_pooled_shm_modes_match_serial(self, cache):
        trace = _trace(10_000)
        jobs = _jobs()
        base = run_sweep(trace, jobs)
        for label, kwargs in (
            ("pooled, in-memory trace", dict(workers=2)),
            ("pooled, cache-attached", dict(workers=2, trace_cache=cache)),
        ):
            _assert_same_outcome(run_sweep(trace, jobs, **kwargs), base, label)
        with cache.get(trace.fingerprint()) as plane:
            _assert_same_outcome(run_sweep(plane, jobs, workers=2), base, "pooled plane")
            spawned = _spawn_pooled(plane, jobs)
        assert spawned.as_rows() == base.as_rows()
        assert spawned.to_json() == base.merged().to_json()


class TestMixedEnginePlane:
    def test_plane_and_pool_match_serial(self, cache):
        trace = _trace(8_000)
        jobs = _mixed_jobs()
        base = run_sweep(trace, jobs)
        _assert_same_outcome(run_sweep(trace, jobs, workers=2), base, "pooled")
        with cache.ensure(trace) as plane:
            for workers in (1, 2):
                outcome = run_sweep(plane, jobs, workers=workers)
                _assert_same_outcome(outcome, base, f"plane, workers={workers}")
            spawned = _spawn_pooled(plane, jobs)
        assert spawned.as_rows() == base.as_rows()


class TestSegmentLifecycle:
    def test_executor_accepts_plane_and_matches_trace_input(self, cache):
        trace = _trace(4_000)
        jobs = _jobs()[:4] + _mixed_jobs()[-2:]
        direct = [r.to_json() for r in FusedSweepExecutor(trace, jobs).execute()]
        with cache.ensure(trace) as plane:
            via_plane = [r.to_json() for r in FusedSweepExecutor(plane, jobs).execute()]
        assert direct == via_plane
        # Closing the plane empties it but leaves the artifact for the next attach.
        assert len(plane) == 0
        with cache.get(trace.fingerprint()) as again:
            assert [
                r.to_json() for r in FusedSweepExecutor(again, jobs).execute()
            ] == direct
