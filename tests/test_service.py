"""Tests for the simulation service: queue durability, coalescing, identity.

The three acceptance properties under test:

* a sweep submitted through the service returns results *byte-identical* to
  ``run_sweep`` executed directly;
* duplicate concurrent submissions of the same canonical job trigger
  exactly one simulation;
* a daemon killed mid-job resumes after restart without losing completed
  cells (the store, not the daemon, is the source of truth).
"""

from __future__ import annotations

import json
import os
import threading
import time

import pytest

from repro.cli import main
from repro.engine import run_sweep
from repro.errors import ServiceError
from repro.service import (
    ServiceClient,
    ServiceDaemon,
    SweepRequest,
    open_service,
)
from repro.service.queue import (
    STATE_CANCELLED,
    STATE_DONE,
    STATE_FAILED,
    STATE_QUEUED,
    STATE_RUNNING,
)
from repro.store import open_store
from repro.trace.files import load_trace_file
from repro.trace.textio import write_text_trace
from repro.workloads.synthetic import WorkingSetGenerator


@pytest.fixture
def trace_file(tmp_path):
    path = tmp_path / "trace.csv"
    trace = WorkingSetGenerator(hot_bytes=2048, cold_bytes=1 << 15).generate(
        1200, seed=13
    )
    write_text_trace(trace, path, fmt="csv")
    return str(path)


def _request(trace_file, **overrides):
    options = dict(
        trace_path=trace_file,
        block_sizes=(8, 16),
        associativities=(1, 2),
        max_sets=32,
        policies=("fifo", "lru"),
    )
    options.update(overrides)
    return SweepRequest(**options)


class TestJobQueue:
    def test_open_creates_layout_and_reopens(self, tmp_path):
        queue = open_service(tmp_path / "svc")
        assert (tmp_path / "svc" / "service.json").is_file()
        again = open_service(tmp_path / "svc")
        assert again.counts() == {state: 0 for state in queue.counts()}

    def test_open_without_create_requires_existing_service(self, tmp_path):
        with pytest.raises(ServiceError, match="no service"):
            open_service(tmp_path / "missing", create=False)

    def test_open_rejects_incompatible_schema(self, tmp_path):
        root = tmp_path / "svc"
        root.mkdir()
        (root / "service.json").write_text(json.dumps({"schema": 999}))
        with pytest.raises(ServiceError, match="schema"):
            open_service(root)

    def test_submit_is_idempotent_and_counts_events(self, tmp_path):
        queue = open_service(tmp_path)
        first, deduped_first = queue.submit("a" * 64, {"x": 1})
        second, deduped_second = queue.submit("a" * 64, {"x": 1})
        assert not deduped_first and deduped_second
        assert first.id == second.id
        assert queue.counts()[STATE_QUEUED] == 1
        assert queue.submissions() == 2

    def test_claim_order_prefers_priority_then_fifo(self, tmp_path):
        queue = open_service(tmp_path)
        queue.submit("a" * 64, {}, priority=0)
        queue.submit("b" * 64, {}, priority=5)
        queue.submit("c" * 64, {}, priority=0)
        claimed = [queue.claim().id for _ in range(3)]
        assert claimed[0] == "b" * 64
        assert claimed[1:] == ["a" * 64, "c" * 64]
        assert queue.claim() is None

    def test_claim_accept_defers_jobs(self, tmp_path):
        queue = open_service(tmp_path)
        queue.submit("a" * 64, {})
        queue.submit("b" * 64, {})
        record = queue.claim(accept=lambda r: r.id != "a" * 64)
        assert record.id == "b" * 64
        assert queue.counts()[STATE_QUEUED] == 1

    def test_complete_writes_payload_before_done(self, tmp_path):
        queue = open_service(tmp_path)
        queue.submit("a" * 64, {})
        record = queue.claim()
        queue.complete(record, "payload-bytes")
        assert queue.counts()[STATE_DONE] == 1
        assert queue.result_text("a" * 64) == "payload-bytes"

    def test_fail_then_resubmit_requeues(self, tmp_path):
        queue = open_service(tmp_path)
        queue.submit("a" * 64, {})
        record = queue.claim()
        queue.fail(record, "boom")
        assert queue.find("a" * 64).state == STATE_FAILED
        assert queue.find("a" * 64).error == "boom"
        requeued, deduped = queue.submit("a" * 64, {})
        assert not deduped
        assert requeued.state == STATE_QUEUED
        assert requeued.error is None
        assert requeued.attempts == 1  # history preserved

    def test_cancel_queued_and_reject_done(self, tmp_path):
        queue = open_service(tmp_path)
        queue.submit("a" * 64, {})
        assert queue.cancel("a" * 64).state == STATE_CANCELLED
        queue.submit("b" * 64, {})
        record = queue.claim()
        queue.complete(record, "x")
        with pytest.raises(ServiceError, match="already done"):
            queue.cancel("b" * 64)

    def test_cancel_running_records_a_request(self, tmp_path):
        """Cancelling a running job is deferred, not refused: a durable
        marker asks the daemon to stop between cells."""
        queue = open_service(tmp_path)
        queue.submit("a" * 64, {})
        record = queue.claim()
        returned = queue.cancel("a" * 64)
        assert returned.state == STATE_RUNNING  # still the daemon's job
        assert queue.cancel_requested("a" * 64)
        # The daemon's side: finish the job as cancelled and clear the marker.
        queue.cancel_running(record)
        assert queue.find("a" * 64).state == STATE_CANCELLED
        assert not queue.cancel_requested("a" * 64)

    def test_resubmission_clears_stale_cancel_request(self, tmp_path):
        queue = open_service(tmp_path)
        queue.submit("a" * 64, {})
        record = queue.claim()
        queue.cancel("a" * 64)
        queue.cancel_running(record)
        requeued, deduped = queue.submit("a" * 64, {})
        assert not deduped
        assert requeued.state == STATE_QUEUED
        assert not queue.cancel_requested("a" * 64)

    def test_find_by_prefix_and_ambiguity(self, tmp_path):
        queue = open_service(tmp_path)
        queue.submit("a1" + "0" * 62, {})
        queue.submit("a2" + "0" * 62, {})
        assert queue.find("a1").id.startswith("a1")
        with pytest.raises(ServiceError, match="ambiguous"):
            queue.find("a")
        with pytest.raises(ServiceError, match="no job"):
            queue.find("zz")

    def test_recover_requeues_running_jobs(self, tmp_path):
        queue = open_service(tmp_path)
        queue.submit("a" * 64, {})
        claimed = queue.claim()
        claimed.cells_done = 3
        queue.update_running(claimed)
        recovered = queue.recover()
        assert [record.id for record in recovered] == ["a" * 64]
        record = queue.find("a" * 64)
        assert record.state == STATE_QUEUED
        assert record.cells_done == 0  # the store is the progress truth
        assert record.attempts == 1

    def test_rewritten_transition_tolerates_missing_source(self, tmp_path):
        """Two actors racing the same transition must both succeed.

        E.g. two clients resubmitting one failed job: both write the queued
        record, the slower one finds the stale failed copy already gone —
        the desired end state holds, so that is not an error.
        """
        queue = open_service(tmp_path)
        queue.submit("a" * 64, {})
        record = queue.claim()
        queue.fail(record, "boom")
        # Simulate the faster racer having completed the requeue already.
        queue._record_path(STATE_FAILED, "a" * 64).unlink()
        queue._write_record(STATE_QUEUED, record)
        queue._transition(STATE_FAILED, STATE_QUEUED, "a" * 64, rewritten=True)
        assert queue.find("a" * 64).state == STATE_QUEUED

    def test_result_of_unfinished_job_is_an_error(self, tmp_path):
        queue = open_service(tmp_path)
        queue.submit("a" * 64, {})
        with pytest.raises(ServiceError, match="not done"):
            queue.result_text("a" * 64)


class TestCanonicalIdentity:
    def test_equivalent_spellings_share_an_id(self, trace_file):
        fingerprint = "f" * 64
        base = _request(trace_file).canonical_job_id(fingerprint)
        reordered = _request(
            trace_file, block_sizes=(16, 8), associativities=(2, 1),
            policies=("LRU", "fifo"),
        ).canonical_job_id(fingerprint)
        assert base == reordered

    def test_different_grids_differ(self, trace_file):
        fingerprint = "f" * 64
        assert _request(trace_file).canonical_job_id(fingerprint) != _request(
            trace_file, block_sizes=(8,)
        ).canonical_job_id(fingerprint)

    def test_wire_round_trip(self, trace_file):
        request = _request(trace_file)
        assert SweepRequest.from_wire(request.to_wire()) == request


class TestServedResultsByteIdentity:
    def test_service_result_equals_direct_run_sweep(self, tmp_path, trace_file):
        client = ServiceClient(tmp_path / "svc", create=True)
        # The seeded random-policy grid is served from the corpus the first
        # job left in the trace cache, and must carry its seed to the engine.
        requests = (
            _request(trace_file),
            _request(trace_file, policies=("random",), seed=3),
        )
        for request in requests:
            response = client.submit(request)
            assert not response["deduped"]
            ServiceDaemon(tmp_path / "svc").run(drain=True)
            served = client.result_when_done(response["job_id"], timeout=30)
            direct = run_sweep(
                load_trace_file(trace_file), request.build_jobs()
            ).merged().to_json()
            assert served == direct

    def test_second_submission_is_served_warm(self, tmp_path, trace_file):
        client = ServiceClient(tmp_path / "svc", create=True)
        request = _request(trace_file)
        job_id = client.submit(request)["job_id"]
        daemon = ServiceDaemon(tmp_path / "svc")
        daemon.run(drain=True)
        first = client.result_text(job_id)
        # Cancel nothing, resubmit the identical request: coalesced, done,
        # and no new simulation happens anywhere.
        response = client.submit(request)
        assert response["deduped"] and response["state"] == STATE_DONE
        assert client.result_text(response["job_id"]) == first
        assert daemon.cells_executed == len(request.build_jobs())

    def test_overlapping_job_reuses_stored_cells(self, tmp_path, trace_file):
        client = ServiceClient(tmp_path / "svc", create=True)
        small = _request(trace_file, block_sizes=(8,))
        big = _request(trace_file)  # superset: blocks 8 and 16
        small_id = client.submit(small)["job_id"]
        daemon = ServiceDaemon(tmp_path / "svc")
        daemon.run(drain=True)
        big_id = client.submit(big)["job_id"]
        daemon.run(drain=True)
        record = client.queue.find(big_id)
        assert record.state == STATE_DONE
        # The overlap (block size 8 cells) came from the store.
        assert record.cells_cached == len(small.build_jobs())
        assert record.cells_done == record.cells_total
        served = client.result_text(big_id)
        direct = run_sweep(
            load_trace_file(trace_file), big.build_jobs()
        ).merged().to_json()
        assert served == direct


class TestConcurrentDuplicateSubmissions:
    def test_concurrent_duplicates_collapse_to_one_execution(self, tmp_path, trace_file):
        client_root = tmp_path / "svc"
        request = _request(trace_file)
        trace = load_trace_file(trace_file)  # share the fingerprint work
        responses = []
        errors = []

        def submit_once():
            try:
                # One client per thread: mirrors independent processes.
                client = ServiceClient(client_root, create=True)
                responses.append(client.submit(request, trace=trace))
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        ServiceClient(client_root, create=True)  # create layout up front
        threads = [threading.Thread(target=submit_once) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len({response["job_id"] for response in responses}) == 1
        queue = open_service(client_root)
        assert sum(queue.counts().values()) == 1
        assert queue.submissions() == 8
        daemon = ServiceDaemon(client_root)
        finished = daemon.run(drain=True)
        assert finished == 1
        assert daemon.jobs_done == 1
        # Exactly one simulation of each cell, ever.
        assert daemon.cells_executed == len(request.build_jobs())
        assert daemon.cells_cached == 0


class TestDaemonDurability:
    def test_kill_mid_sweep_then_restart_resumes_without_resimulation(
        self, tmp_path, trace_file
    ):
        root = tmp_path / "svc"
        client = ServiceClient(root, create=True)
        request = _request(trace_file)
        job_id = client.submit(request)["job_id"]
        total_cells = len(request.build_jobs())
        assert total_cells == 4

        def die_after_first_cell(record, index, job, cached):
            raise KeyboardInterrupt  # simulate SIGINT/SIGKILL mid-job

        store = open_store(root / "store")
        first = ServiceDaemon(root, store=store, on_cell=die_after_first_cell)
        with pytest.raises(KeyboardInterrupt):
            first.run(drain=True)
        # The job is stranded in running with exactly one persisted cell.
        assert client.queue.find(job_id).state == STATE_RUNNING
        assert len(store) == 1

        second = ServiceDaemon(root, store=store)
        finished = second.run(drain=True)
        assert finished == 1
        record = client.queue.find(job_id)
        assert record.state == STATE_DONE
        assert record.attempts == 2
        # The restart re-simulated only the unpersisted cells.
        assert record.cells_cached == 1
        assert record.extra["executed_jobs"] == total_cells - 1
        served = client.result_text(job_id)
        direct = run_sweep(
            load_trace_file(trace_file), request.build_jobs()
        ).merged().to_json()
        assert served == direct

    def test_changed_trace_fails_instead_of_serving_stale_results(
        self, tmp_path, trace_file
    ):
        root = tmp_path / "svc"
        client = ServiceClient(root, create=True)
        job_id = client.submit(_request(trace_file))["job_id"]
        # Rewrite the trace file after submission: fingerprint mismatch.
        other = WorkingSetGenerator().generate(800, seed=99)
        write_text_trace(other, trace_file, fmt="csv")
        daemon = ServiceDaemon(root)
        daemon.run(drain=True)
        record = client.queue.find(job_id)
        assert record.state == STATE_FAILED
        assert "changed since submission" in record.error

    def test_failed_job_can_be_resubmitted_and_succeeds(self, tmp_path, trace_file):
        root = tmp_path / "svc"
        client = ServiceClient(root, create=True)
        request = _request(trace_file)
        trace = load_trace_file(trace_file)
        job_id = client.submit(request, trace=trace)["job_id"]
        # Sabotage execution once by renaming the trace away.
        import os

        os.rename(trace_file, trace_file + ".hidden")
        ServiceDaemon(root).run(drain=True)
        assert client.queue.find(job_id).state == STATE_FAILED
        os.rename(trace_file + ".hidden", trace_file)
        response = client.submit(request, trace=trace)
        assert not response["deduped"]  # a retry enqueues real work
        ServiceDaemon(root).run(drain=True)
        assert client.queue.find(job_id).state == STATE_DONE


class TestInFlightCoalescing:
    def test_accept_defers_overlapping_jobs_only(self, tmp_path, trace_file):
        root = tmp_path / "svc"
        client = ServiceClient(root, create=True)
        trace = load_trace_file(trace_file)
        overlapping = _request(trace_file)  # shares cells with `small`
        small = _request(trace_file, block_sizes=(8,))
        disjoint = _request(trace_file, block_sizes=(64,))
        client.submit(small, trace=trace)
        client.submit(overlapping, trace=trace)
        client.submit(disjoint, trace=trace)
        daemon = ServiceDaemon(root, workers=2)
        first = daemon.queue.claim(accept=daemon._accept)
        daemon._mark_job_inflight(first)
        assert first.request["block_sizes"] == [8]
        overlapping_record = client.queue.find(
            overlapping.canonical_job_id(trace.fingerprint())
        )
        disjoint_record = client.queue.find(
            disjoint.canonical_job_id(trace.fingerprint())
        )
        assert not daemon._accept(overlapping_record)
        assert daemon._accept(disjoint_record)
        daemon._clear_inflight(first.id)
        assert daemon._accept(overlapping_record)

    def test_store_stats_include_in_flight(self, tmp_path):
        store = open_store(tmp_path / "store")
        from repro.store import StoreKey

        key = StoreKey.make("f" * 64, "dew", {"block_size": 8})
        assert store.stats()["in_flight"] == 0
        store.mark_in_flight(key)
        assert store.is_in_flight(key)
        assert store.stats()["in_flight"] == 1
        store.clear_in_flight(key)
        assert store.stats()["in_flight"] == 0


class TestOnResultHook:
    def test_run_sweep_reports_cached_and_fresh_cells(self, tmp_path, trace_file):
        trace = load_trace_file(trace_file)
        jobs = _request(trace_file).build_jobs()
        store = open_store(tmp_path / "store")
        seen = []
        run_sweep(trace, jobs[:2], store=store,
                  on_result=lambda i, j, r, cached: seen.append((i, cached)))
        assert seen == [(0, False), (1, False)]
        seen.clear()
        run_sweep(trace, jobs, store=store,
                  on_result=lambda i, j, r, cached: seen.append((i, cached)))
        assert sorted(seen) == [(0, True), (1, True), (2, False), (3, False)]


class TestServiceCli:
    def _submit_args(self, service, trace):
        return [
            "submit", str(service), str(trace),
            "--block-sizes", "8,16", "--associativities", "1,2",
            "--max-sets", "32", "--policies", "fifo,lru",
        ]

    def test_submit_serve_result_round_trip(self, tmp_path, trace_file, capsys):
        service = tmp_path / "svc"
        assert main(self._submit_args(service, trace_file)) == 0
        assert "queued as job" in capsys.readouterr().out
        assert main(self._submit_args(service, trace_file)) == 0
        assert "coalesced onto job" in capsys.readouterr().out
        assert main(["serve", str(service), "--drain"]) == 0
        capsys.readouterr()
        assert main(["queue", "ls", str(service)]) == 0
        listing = capsys.readouterr().out
        assert "done" in listing and "1 job(s)" in listing
        job_prefix = listing.splitlines()[1].split()[0]
        assert main(["result", str(service), job_prefix, "--format", "json"]) == 0
        served = capsys.readouterr().out
        assert main([
            "sweep", trace_file, "--block-sizes", "8,16",
            "--associativities", "1,2", "--max-sets", "32",
            "--policies", "fifo,lru", "--format", "json",
        ]) == 0
        direct = capsys.readouterr().out
        assert served == direct

    def test_submit_wait_completes_against_live_daemon(self, tmp_path, trace_file, capsys):
        service = tmp_path / "svc"
        daemon_thread = threading.Thread(
            target=main, args=(["serve", str(service), "--max-jobs", "1"],)
        )
        daemon_thread.start()
        try:
            code = main(self._submit_args(service, trace_file) + ["--wait"])
        finally:
            daemon_thread.join(timeout=60)
        assert code == 0
        assert "(done)" in capsys.readouterr().out
        assert not daemon_thread.is_alive()

    def test_status_stats_cancel_and_errors(self, tmp_path, trace_file, capsys):
        service = tmp_path / "svc"
        assert main(self._submit_args(service, trace_file)) == 0
        capsys.readouterr()
        assert main(["queue", "stats", str(service)]) == 0
        out = capsys.readouterr().out
        assert "1 queued" in out and "daemon: no heartbeat" in out
        assert main(["status", str(service), ""]) == 2  # empty id
        capsys.readouterr()
        assert main(["status", str(service), "zz"]) == 2  # unknown id
        assert "no job matches" in capsys.readouterr().err
        listing_code = main(["queue", "ls", str(service), "--format", "json"])
        assert listing_code == 0
        job_id = json.loads(capsys.readouterr().out)[0]["id"]
        assert main(["result", str(service), job_id]) == 2  # not done yet
        capsys.readouterr()
        assert main(["cancel", str(service), job_id]) == 0
        assert "cancelled job" in capsys.readouterr().out
        # Client commands never create a service at a mistyped path.
        assert main(["status", str(tmp_path / "nope"), "x"]) == 2

    def test_explore_over_completed_service_job(self, tmp_path, trace_file, capsys):
        service = tmp_path / "svc"
        assert main(self._submit_args(service, trace_file)) == 0
        assert main(["serve", str(service), "--drain"]) == 0
        capsys.readouterr()
        assert main(["queue", "ls", str(service), "--format", "json"]) == 0
        job_id = json.loads(capsys.readouterr().out)[0]["id"]
        assert main([
            "explore", "pareto", "--service", str(service), "--job", job_id,
        ]) == 0
        assert "pareto front" in capsys.readouterr().out
        assert main([
            "explore", "tune", "--service", str(service), "--job", job_id,
            "--objective", "misses",
        ]) == 0
        assert "tuned" in capsys.readouterr().out
        # Source exclusivity: --job without --service is rejected.
        assert main(["explore", "pareto", "--job", job_id]) == 2


class TestRunningJobCancellation:
    def test_daemon_stops_a_cancelled_job_between_cells(self, tmp_path, trace_file):
        root = tmp_path / "svc"
        client = ServiceClient(root, create=True)
        request = _request(trace_file)
        job_id = client.submit(request)["job_id"]
        total_cells = len(request.build_jobs())

        responses = []

        def cancel_after_first_cell(record, index, job, cached):
            if not responses:
                responses.append(client.cancel(record.id))

        store = open_store(root / "store")
        daemon = ServiceDaemon(root, store=store, on_cell=cancel_after_first_cell)
        # The cancelled job counts as finished work for drain accounting.
        assert daemon.run(drain=True) == 1
        assert daemon.jobs_cancelled == 1
        assert daemon.heartbeat()["jobs_cancelled"] == 1

        record = client.queue.find(job_id)
        assert record.state == STATE_CANCELLED
        assert record.cells_done == 1
        assert f"cancelled after 1/{total_cells} cell(s)" in (record.error or "")
        # The client's cancel saw a *running* job and recorded a request...
        assert responses[0]["requested"] is True
        assert responses[0]["job"]["state"] == STATE_RUNNING
        # ...which the daemon consumed when it stopped the job.
        assert not client.queue.cancel_requested(job_id)
        # The cell that completed before the abort stayed persisted.
        assert len(store) == 1

    def test_resubmitted_cancelled_job_resumes_from_stored_cells(
        self, tmp_path, trace_file
    ):
        root = tmp_path / "svc"
        client = ServiceClient(root, create=True)
        request = _request(trace_file)
        job_id = client.submit(request)["job_id"]

        def cancel_first(record, index, job, cached):
            if index == 0:
                client.cancel(record.id)

        store = open_store(root / "store")
        ServiceDaemon(root, store=store, on_cell=cancel_first).run(drain=True)
        assert client.queue.find(job_id).state == STATE_CANCELLED

        # An explicit resubmission is a retry: the job requeues and the
        # second serve pays only for the cells the abort left unfinished.
        response = client.submit(request)
        assert response["job_id"] == job_id
        assert client.queue.find(job_id).state == STATE_QUEUED
        assert ServiceDaemon(root, store=store).run(drain=True) == 1
        record = client.queue.find(job_id)
        assert record.state == STATE_DONE
        assert record.cells_cached == 1
        served = client.result_text(job_id)
        direct = run_sweep(
            load_trace_file(trace_file), request.build_jobs()
        ).merged().to_json()
        assert served == direct

    def test_cancel_of_queued_job_still_flips_immediately(self, tmp_path, trace_file):
        root = tmp_path / "svc"
        client = ServiceClient(root, create=True)
        job_id = client.submit(_request(trace_file))["job_id"]
        response = client.cancel(job_id)
        assert response["requested"] is False
        assert response["job"]["state"] == STATE_CANCELLED


class TestSubmitEventPruning:
    @staticmethod
    def _age_events(root, seconds=7200):
        stale = time.time() - seconds
        for path in (root / "events").glob("*.submit"):
            os.utime(path, (stale, stale))

    def test_prune_preserves_the_all_time_submission_count(
        self, tmp_path, trace_file
    ):
        root = tmp_path / "svc"
        client = ServiceClient(root, create=True)
        request = _request(trace_file)
        client.submit(request)
        client.submit(request)  # coalesced duplicate still counts as an event
        assert client.queue.submissions() == 2
        self._age_events(root)
        assert client.queue.prune_events(retain_seconds=3600.0) == 2
        assert list((root / "events").glob("*.submit")) == []
        # Dedup accounting survives via the archived count...
        assert client.queue.submissions() == 2
        stats = client.stats()
        assert stats["submissions"] == 2
        assert stats["coalesced_submissions"] == 1
        # ...and fresh submissions stack on top of it.
        client.submit(request)
        assert client.queue.submissions() == 3
        assert client.queue.prune_events(retain_seconds=3600.0) == 0

    def test_recent_events_survive_the_retain_window(self, tmp_path, trace_file):
        root = tmp_path / "svc"
        client = ServiceClient(root, create=True)
        client.submit(_request(trace_file))
        assert client.queue.prune_events() == 0
        assert client.queue.submissions() == 1

    def test_daemon_startup_prunes_stale_events(self, tmp_path, trace_file):
        root = tmp_path / "svc"
        client = ServiceClient(root, create=True)
        client.submit(_request(trace_file))
        self._age_events(root)
        daemon = ServiceDaemon(
            root, store=open_store(root / "store"), event_retain_seconds=3600.0
        )
        assert daemon.run(drain=True) == 1
        assert list((root / "events").glob("*.submit")) == []
        assert client.stats()["submissions"] == 1

    def test_queue_stats_prune_flag(self, tmp_path, trace_file, capsys):
        root = tmp_path / "svc"
        client = ServiceClient(root, create=True)
        client.submit(_request(trace_file))
        self._age_events(root)
        code = main([
            "queue", "stats", str(root),
            "--prune-events", "--retain-seconds", "3600",
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "pruned 1 submit event(s)" in captured.err
        assert "1 submission(s)" in captured.out or "submissions" in captured.out
        assert list((root / "events").glob("*.submit")) == []
