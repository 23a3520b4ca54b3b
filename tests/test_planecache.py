"""Tests for the fingerprint-addressed trace cache.

The contract: a cached, mmap-attached trace is *byte-identical* to a cold
text parse — the same columns, the same sweep results across the serial,
pooled and store-resume execution paths — one artifact serves every job
grid over a trace, and every failure mode of the cache (corruption,
concurrent writers, schema drift, gc races) degrades to a re-parse, never
to wrong results.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import build_grid_jobs, run_sweep
from repro.errors import StoreError
from repro.service.api import ServiceClient, SweepRequest
from repro.service.daemon import ServiceDaemon
from repro.store import open_store
from repro.trace import files as trace_files
from repro.trace.din import write_din
from repro.trace.files import load_trace_file, trace_name_for_path
from repro.trace.planecache import (
    PLANE_SCHEMA_VERSION,
    CachedPlane,
    TracePlaneCache,
    coerce_plane_cache,
    gc_plane_cache,
    open_plane_cache,
    scan_plane_cache,
    verify_plane_cache,
    _MAGIC,
    _PREAMBLE,
    _align,
)
from repro.trace.trace import Trace
from repro.workloads.synthetic import WorkingSetGenerator

SET_SIZES = (1, 2, 4, 8)


@pytest.fixture(scope="module")
def cache_trace() -> Trace:
    return WorkingSetGenerator(hot_bytes=2048, cold_bytes=1 << 16).generate(
        3000, seed=11
    ).with_name("planecached")


@pytest.fixture(scope="module")
def grid_jobs():
    return build_grid_jobs([8, 32], [1, 2], SET_SIZES, policies=("fifo", "lru"))


@pytest.fixture()
def cache(tmp_path) -> TracePlaneCache:
    return open_plane_cache(tmp_path / "pc")


def _result_rows(outcome):
    return [results.as_rows() for results in outcome.results]


class TestCacheHitMiss:
    def test_cold_get_is_a_miss(self, cache, cache_trace):
        assert cache.get(cache_trace.fingerprint()) is None
        assert cache.stats()["misses"] == 1
        assert cache.stats()["corrupt"] == 0

    def test_ensure_then_hit(self, cache, cache_trace):
        with cache.ensure(cache_trace) as plane:
            assert plane.fingerprint() == cache_trace.fingerprint()
        stats = cache.stats()
        assert stats["puts"] == 1 and stats["misses"] == 1
        with cache.get(cache_trace.fingerprint()) as plane:
            assert plane is not None
        assert cache.stats()["hits"] == 1

    def test_arrays_byte_equal_to_cold_decode(self, cache, cache_trace):
        with cache.ensure(cache_trace) as plane:
            assert isinstance(plane, Trace)
            assert plane == cache_trace
            assert plane.addresses.dtype == cache_trace.addresses.dtype
            assert plane.access_types.dtype == cache_trace.access_types.dtype
            assert plane.sizes.dtype == cache_trace.sizes.dtype
            assert plane.name == cache_trace.name

    def test_overlapping_grids_share_one_artifact(self, cache, cache_trace, grid_jobs):
        narrow = build_grid_jobs([32], [2], SET_SIZES, policies=("lru",))
        for jobs in (grid_jobs, narrow):
            cached = run_sweep(cache_trace, jobs, trace_cache=cache)
            assert cached.as_rows() == run_sweep(cache_trace, jobs).as_rows()
        assert len(cache) == 1
        assert cache.stats()["puts"] == 1
        assert cache.stats()["hits"] == 1

    def test_trace_name_override_for_renamed_files(self, cache, cache_trace):
        cache.ensure(cache_trace).close()
        with cache.get(cache_trace.fingerprint(), trace_name="renamed") as plane:
            assert plane.name == "renamed"

    def test_views_are_read_only(self, cache, cache_trace):
        with cache.ensure(cache_trace) as plane:
            with pytest.raises(ValueError):
                plane.addresses[0] = 1

    def test_descriptor_pickles_and_attaches(self, cache):
        # An attached plane pickles as its artifact path, and unpickling
        # attaches that artifact again.
        for length in (3_000, 300_000):
            source = WorkingSetGenerator(hot_bytes=2048, cold_bytes=1 << 16).generate(
                length, seed=3
            ).with_name("pickled")
            with cache.ensure(source) as plane:
                blob = pickle.dumps(plane)
                assert len(blob) < 4096, length
                with pickle.loads(blob) as copy:
                    assert isinstance(copy, CachedPlane)
                    assert copy == source
                    assert copy.name == source.name
                    assert copy.fingerprint() == source.fingerprint()
            # A trace-name override travels with the path.
            with cache.get(source.fingerprint(), trace_name="renamed") as plane:
                with pickle.loads(pickle.dumps(plane)) as copy:
                    assert copy.name == "renamed"
                    assert copy == source


def _rewrite_header(path, edit):
    """Rewrite an artifact's JSON header through ``edit``, payload verbatim."""
    raw = path.read_bytes()
    magic, header_len = _PREAMBLE.unpack_from(raw)
    assert magic == _MAGIC
    old_base = _align(_PREAMBLE.size + header_len)
    header = json.loads(raw[_PREAMBLE.size:_PREAMBLE.size + header_len])
    edit(header)
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("ascii")
    new_base = _align(_PREAMBLE.size + len(blob))
    path.write_bytes(
        _PREAMBLE.pack(_MAGIC, len(blob))
        + blob
        + b"\0" * (new_base - _PREAMBLE.size - len(blob))
        + raw[old_base:]
    )


def _write_schema1_artifact(path, trace):
    """An artifact as schema-1 builds wrote it: a grid-keyed address, a
    ``key`` description, per-block-size derived arrays and a payload hash."""
    blocks = trace.addresses >> 3
    arrays = [("addresses", trace.addresses), ("blocks:3", blocks)]
    specs, payload, cursor = [], b"", 0
    for key, array in arrays:
        offset = _align(cursor)
        payload += b"\0" * (offset - cursor) + array.tobytes()
        specs.append({"key": key, "dtype": array.dtype.str,
                      "shape": [int(array.size)], "offset": offset})
        cursor = offset + array.nbytes
    digest = path.name[: -len(".plane")]
    header = {
        "schema": 1,
        "key": {"digest": digest, "fingerprint": trace.fingerprint(),
                "chunk_size": 65536, "collapse": True, "offsets": [3],
                "runs_offsets": [], "needs_types": False},
        "trace_name": trace.name,
        "length": len(trace),
        "arrays": specs,
        "payload_bytes": len(payload),
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("ascii")
    base = _align(_PREAMBLE.size + len(blob))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(
        _PREAMBLE.pack(_MAGIC, len(blob)) + blob
        + b"\0" * (base - _PREAMBLE.size - len(blob)) + payload
    )


class TestCorruption:
    def _warm(self, cache, trace):
        cache.ensure(trace).close()
        return trace.fingerprint()

    def test_truncation_reads_as_miss(self, cache, cache_trace):
        fingerprint = self._warm(cache, cache_trace)
        path = cache.path_for(fingerprint)
        with open(path, "r+b") as handle:
            handle.truncate(os.path.getsize(path) // 2)
        assert cache.get(fingerprint) is None
        assert cache.stats()["corrupt"] == 1
        # A re-put repairs the artifact in place.
        cache.put(cache_trace)
        assert cache.get(fingerprint) is not None

    def test_garbage_magic_reads_as_miss(self, cache, cache_trace):
        fingerprint = self._warm(cache, cache_trace)
        with open(cache.path_for(fingerprint), "r+b") as handle:
            handle.write(b"NOTAPLANE!!!")
        assert cache.get(fingerprint) is None
        assert cache.stats()["corrupt"] == 1

    def test_payload_flip_survives_get_but_fails_verify(self, cache, cache_trace):
        # get() validates structure, not content (recomputing the
        # fingerprint is verify's job, mirroring the result store's
        # get-vs-verify split); gc then collects what verify flags.
        fingerprint = self._warm(cache, cache_trace)
        path = cache.path_for(fingerprint)
        raw = path.read_bytes()
        _magic, header_len = _PREAMBLE.unpack_from(raw)
        target = _align(_PREAMBLE.size + header_len) + 8 * 10  # address #10
        with open(path, "r+b") as handle:
            handle.seek(target)
            handle.write(bytes([raw[target] ^ 0x01]))
        with cache.get(fingerprint) as plane:
            assert plane is not None
            assert plane.addresses[10] == cache_trace.addresses[10] ^ 0x01
        report = verify_plane_cache(cache)
        assert [record.status for record in report.problems] == ["corrupt"]
        assert "fingerprint mismatch" in report.problems[0].detail
        gc_report = gc_plane_cache(cache)
        assert [record.path for record in gc_report.removed] == [path]
        assert not path.exists()

    def test_mis_addressed_artifact_is_a_miss_and_flagged(self, cache, cache_trace):
        fingerprint = self._warm(cache, cache_trace)
        elsewhere = cache.path_for("ab" * 32)
        elsewhere.parent.mkdir(parents=True, exist_ok=True)
        os.replace(cache.path_for(fingerprint), elsewhere)
        assert cache.get("ab" * 32) is None
        assert cache.stats()["corrupt"] == 1
        assert [r.status for r in verify_plane_cache(cache).problems] == ["mis-addressed"]

    def test_schema1_artifacts_are_never_attached_and_gc_collects_them(
        self, tmp_path, cache_trace
    ):
        root = tmp_path / "old"
        old_cache = open_plane_cache(root)
        fingerprint = cache_trace.fingerprint()
        grid_keyed = old_cache.path_for("cd" * 32)
        at_fingerprint = old_cache.path_for(fingerprint)
        _write_schema1_artifact(grid_keyed, cache_trace)
        _write_schema1_artifact(at_fingerprint, cache_trace)

        # The directory still opens, in a daemon too, which keeps its cache.
        daemon = ServiceDaemon(tmp_path / "svc", daemon_id="old", socket=False,
                               trace_cache=root)
        assert daemon.trace_cache is not None
        cache = open_plane_cache(root)
        assert cache.get(fingerprint) is None
        assert cache.stats()["corrupt"] == 1
        with cache.ensure(cache_trace) as plane:
            assert plane == cache_trace

        report = gc_plane_cache(cache)
        assert [record.path for record in report.removed] == [grid_keyed]
        assert not grid_keyed.exists()
        assert verify_plane_cache(cache).clean
        assert cache.artifact_paths() == [at_fingerprint]

    def test_future_schema_reads_as_miss(self, cache, cache_trace):
        # Mirrors the ResultsFrame v1/v2 discipline: an artifact stamped by
        # a future build must be refused (a miss), never misread.
        fingerprint = self._warm(cache, cache_trace)

        def bump(header):
            assert header["schema"] == PLANE_SCHEMA_VERSION
            header["schema"] = 99

        _rewrite_header(cache.path_for(fingerprint), bump)
        assert cache.get(fingerprint) is None
        assert cache.stats()["corrupt"] == 1

    def test_unknown_header_fields_are_tolerated(self, cache, cache_trace):
        # Forward-compat within a readable schema: extra fields a newer
        # minor build might add must not break attach.
        fingerprint = self._warm(cache, cache_trace)
        _rewrite_header(
            cache.path_for(fingerprint),
            lambda header: header.update(future_hint={"anything": True}),
        )
        with cache.get(fingerprint) as plane:
            assert plane is not None

    def test_concurrent_writers_race_benignly(self, cache, cache_trace):
        barrier = threading.Barrier(4)
        errors = []

        def writer():
            try:
                barrier.wait()
                cache.put(cache_trace)
            except Exception as exc:  # noqa: BLE001 - collected for the assert
                errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        with cache.get(cache_trace.fingerprint()) as plane:
            assert plane is not None
        assert verify_plane_cache(cache).clean
        # No orphaned temp files survive the race.
        assert not [p for p in cache.root.rglob(".tmp-*")]


class TestGc:
    def test_views_survive_gc_after_attach(self, cache, cache_trace):
        plane = cache.ensure(cache_trace)
        report = gc_plane_cache(cache, max_bytes=0)
        assert report.budget_evicted == 1
        assert len(cache.artifact_paths()) == 0
        # The mmap holds the pages; the attached trace stays readable.
        assert plane == cache_trace
        plane.close()

    def test_keep_fingerprints(self, cache, cache_trace):
        cache.ensure(cache_trace).close()
        other = WorkingSetGenerator(hot_bytes=1024, cold_bytes=4096).generate(
            500, seed=9
        ).with_name("other")
        cache.ensure(other).close()
        report = gc_plane_cache(
            cache, keep_fingerprints=[cache_trace.fingerprint()[:12]]
        )
        assert len(report.removed) == 1
        assert cache.contains(cache_trace.fingerprint())

    def test_scan_classifies_temp_and_foreign(self, cache, cache_trace):
        cache.ensure(cache_trace).close()
        (cache.objects_dir / "aa").mkdir(exist_ok=True)
        (cache.objects_dir / "aa" / ".tmp-feedface-1").write_bytes(b"partial")
        (cache.root / "README").write_text("hands off")
        statuses = sorted(record.status for record in scan_plane_cache(cache))
        assert statuses == ["foreign", "ok", "temp"]
        # gc removes the temp, never the foreign file.
        gc_plane_cache(cache)
        assert (cache.root / "README").exists()
        assert not list(cache.objects_dir.rglob(".tmp-*"))


class TestSidecars:
    def _din(self, tmp_path, trace):
        path = tmp_path / "sidecar.din"
        write_din(trace, path)
        return path

    def test_record_and_recall(self, cache, tmp_path, cache_trace):
        path = self._din(tmp_path, cache_trace)
        assert cache.cached_fingerprint(path) is None
        loaded = load_trace_file(path, cache=cache)
        assert cache.cached_fingerprint(path) == loaded.fingerprint()
        assert cache.stats()["sidecar_hits"] == 1

    def test_invalidated_by_content_change(self, cache, tmp_path, cache_trace):
        path = self._din(tmp_path, cache_trace)
        load_trace_file(path, cache=cache)
        assert cache.cached_fingerprint(path) is not None
        with open(path, "a") as handle:
            handle.write("r 1000\n")
        assert cache.cached_fingerprint(path) is None

    def test_warm_load_skips_hash(self, cache, tmp_path, cache_trace):
        path = self._din(tmp_path, cache_trace)
        first = load_trace_file(path, cache=cache)
        warm = load_trace_file(path, cache=cache)
        # The memo was seeded from the sidecar: fingerprint() returns
        # without touching the address arrays.
        assert warm._fingerprint_cache == first.fingerprint()

    def test_decode_counter_counts_parses(self, cache, tmp_path, cache_trace):
        path = self._din(tmp_path, cache_trace)
        before = trace_files.decode_count()
        load_trace_file(path, cache=cache)
        load_trace_file(path, cache=cache)
        assert trace_files.decode_count() - before == 2

    def test_trace_name_for_path(self):
        assert trace_name_for_path("/a/b/corpus.din") == "corpus"
        assert trace_name_for_path("corpus.din.gz") == "corpus"
        assert trace_name_for_path("plain.csv") == "plain"


class TestCoercion:
    def test_none_and_false_disable(self):
        assert coerce_plane_cache(None) is None
        assert coerce_plane_cache(False) is None

    def test_true_needs_a_path(self):
        with pytest.raises(StoreError):
            coerce_plane_cache(True)

    def test_path_opens_and_instance_passes_through(self, tmp_path):
        cache = coerce_plane_cache(tmp_path / "pc")
        assert isinstance(cache, TracePlaneCache)
        assert coerce_plane_cache(cache) is cache

    def test_foreign_manifest_refused(self, tmp_path):
        root = tmp_path / "pc"
        root.mkdir()
        (root / "planecache.json").write_text(json.dumps({"schema": 99}))
        with pytest.raises(StoreError):
            open_plane_cache(root)


class TestSweepIdentity:
    def test_all_paths_byte_identical(self, tmp_path, cache_trace, grid_jobs):
        cachedir = tmp_path / "pc"
        base = run_sweep(cache_trace, grid_jobs)
        variants = {
            "serial-cache": dict(trace_cache=cachedir),
            "pooled": dict(workers=2),
            "pooled-cache": dict(workers=2, trace_cache=cachedir),
        }
        for label, kwargs in variants.items():
            outcome = run_sweep(cache_trace, grid_jobs, **kwargs)
            assert _result_rows(outcome) == _result_rows(base), label
            assert outcome.trace_name == base.trace_name

    def test_plane_input_serial_and_pooled(self, tmp_path, cache_trace, grid_jobs):
        cache = open_plane_cache(tmp_path / "pc")
        base = run_sweep(cache_trace, grid_jobs)
        cache.ensure(cache_trace).close()
        for workers in (1, 2):
            with cache.get(cache_trace.fingerprint()) as plane:
                outcome = run_sweep(plane, grid_jobs, workers=workers)
            assert _result_rows(outcome) == _result_rows(base)
            assert outcome.trace_name == cache_trace.name

    def test_store_resume_with_cache(self, tmp_path, cache_trace, grid_jobs):
        cachedir, storedir = tmp_path / "pc", tmp_path / "store"
        base = run_sweep(cache_trace, grid_jobs)
        run_sweep(
            cache_trace, grid_jobs[:3], store=open_store(storedir),
            trace_cache=cachedir,
        )
        resumed = run_sweep(
            cache_trace, grid_jobs, workers=2, store=open_store(storedir),
            trace_cache=cachedir,
        )
        assert resumed.cached_jobs == 3
        assert _result_rows(resumed) == _result_rows(base)

    def test_plane_input_with_store_uses_plane_fingerprint(
        self, tmp_path, cache_trace, grid_jobs
    ):
        cache = open_plane_cache(tmp_path / "pc")
        store = open_store(tmp_path / "store")
        run_sweep(cache_trace, grid_jobs, store=store, trace_cache=cache)
        with cache.get(cache_trace.fingerprint()) as plane:
            outcome = run_sweep(plane, grid_jobs, store=store)
        assert outcome.cached_jobs == len(grid_jobs)

    def test_unusable_cache_degrades_gracefully(self, tmp_path, cache_trace, grid_jobs):
        bogus = tmp_path / "bogus"
        bogus.mkdir()
        (bogus / "planecache.json").write_text(json.dumps({"schema": 99}))
        base = run_sweep(cache_trace, grid_jobs)
        outcome = run_sweep(cache_trace, grid_jobs, trace_cache=bogus)
        assert _result_rows(outcome) == _result_rows(base)

    @given(
        addresses=st.lists(
            st.integers(min_value=0, max_value=(1 << 22) - 1),
            min_size=1,
            max_size=300,
        ),
        chunk_size=st.sampled_from([7, 64, 65536]),
    )
    @settings(max_examples=15, deadline=None)
    def test_hypothesis_oracle_cache_vs_cold(self, tmp_path_factory, addresses, chunk_size):
        trace = Trace(np.array(addresses, dtype=np.int64), name="hyp")
        jobs = build_grid_jobs([8, 32], [1, 2], (1, 2, 4), policies=("lru",))
        cachedir = tmp_path_factory.mktemp("hyp-pc")
        cold = run_sweep(trace, jobs, chunk_size=chunk_size)
        warm_writer = run_sweep(
            trace, jobs, chunk_size=chunk_size, trace_cache=cachedir
        )
        warm_reader = run_sweep(
            trace, jobs, chunk_size=chunk_size, trace_cache=cachedir
        )
        assert _result_rows(warm_writer) == _result_rows(cold)
        assert _result_rows(warm_reader) == _result_rows(cold)


class TestServiceIntegration:
    def _service(self, tmp_path, trace):
        trace_path = tmp_path / "svc.din"
        write_din(trace, trace_path)
        return tmp_path / "svc", str(trace_path)

    def test_fleet_decodes_once(self, tmp_path, cache_trace):
        root, trace_path = self._service(tmp_path, cache_trace)
        client = ServiceClient(root, create=True)
        client.submit(SweepRequest(
            trace_path=trace_path, block_sizes=(8, 32),
            associativities=(1, 2), max_sets=8,
        ))
        before = trace_files.decode_count()
        ServiceDaemon(root, daemon_id="first", socket=False).run(drain=True)
        assert trace_files.decode_count() - before == 1
        # A different grid (other block sizes, other policy) over the same
        # corpus shares its one artifact: the second daemon never parses.
        client.submit(SweepRequest(
            trace_path=trace_path, block_sizes=(16,),
            associativities=(1, 2), max_sets=8, policies=("lru",),
        ))
        second = ServiceDaemon(root, daemon_id="second", socket=False)
        second.run(drain=True)
        assert trace_files.decode_count() - before == 1
        assert second.trace_cache.stats()["hits"] == 1

    def test_submit_sidecar_skips_second_hash(self, tmp_path, cache_trace):
        root, trace_path = self._service(tmp_path, cache_trace)
        client = ServiceClient(root, create=True)
        before = trace_files.decode_count()
        client.submit(SweepRequest(trace_path=trace_path, max_sets=4))
        assert trace_files.decode_count() - before == 1
        # The submit recorded the sidecar: a fresh client re-submitting the
        # same (even a different) grid never reloads the file.
        other = ServiceClient(root)
        other.submit(SweepRequest(trace_path=trace_path, max_sets=8))
        assert trace_files.decode_count() - before == 1

    def test_changed_trace_fails_not_serves_stale(self, tmp_path, cache_trace):
        root, trace_path = self._service(tmp_path, cache_trace)
        client = ServiceClient(root, create=True)
        response = client.submit(SweepRequest(trace_path=trace_path, max_sets=4))
        with open(trace_path, "a") as handle:
            handle.write("r 4\n")
        ServiceDaemon(root, daemon_id="d", socket=False).run(drain=True)
        record = client.queue.find(response["job_id"])
        assert record.state == "failed"
        assert "changed since submission" in record.error

    def test_heartbeat_and_stats_surface_counters(self, tmp_path, cache_trace):
        root, trace_path = self._service(tmp_path, cache_trace)
        client = ServiceClient(root, create=True)
        client.submit(SweepRequest(trace_path=trace_path, max_sets=4))
        daemon = ServiceDaemon(root, daemon_id="counted", socket=False)
        daemon.run(drain=True)
        payload = daemon.heartbeat()
        assert payload["trace_cache"]["puts"] == 1
        stats = client.stats()
        assert stats["daemon"]["daemon_id"] == "counted"
        assert stats["daemon"]["trace_cache"]["puts"] == 1

    def test_no_trace_cache_disables(self, tmp_path, cache_trace):
        root, trace_path = self._service(tmp_path, cache_trace)
        client = ServiceClient(root, create=True, trace_cache=False)
        client.submit(SweepRequest(trace_path=trace_path, max_sets=4))
        daemon = ServiceDaemon(root, daemon_id="plain", socket=False, trace_cache=False)
        daemon.run(drain=True)
        assert daemon.trace_cache is None
        assert daemon.heartbeat()["trace_cache"] is None
        assert not (root / "tracecache").exists()
