"""Tests for the daemon's directory contract, its socket and queue upkeep.

One daemon serves a service directory: a second one is refused while the
first runs, a claim has exactly one winner, and after a crash (even one
that leaves a forked child alive) the next daemon starts at once and
finishes every stranded job without re-simulating persisted cells.  No
transport or restart path bends byte-identity.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.engine import run_sweep
from repro.errors import ServiceError
from repro.service import (
    ServiceClient,
    ServiceDaemon,
    SweepRequest,
    discover_socket,
    open_service,
)
from repro.service.queue import (
    STATE_DONE,
    STATE_QUEUED,
    STATE_RUNNING,
)
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


def _direct(trace_file, request):
    return run_sweep(load_trace_file(trace_file), request.build_jobs()).merged().to_json()


#: A daemon whose first persisted cell forks a multiprocessing child, prints
#: both pids and blocks, so a test can SIGKILL it mid-job with the child alive.
#: The pids are printed once the child runs its target: its after-fork hooks,
#: which close its copy of the lock, have run by then.
_DAEMON_WITH_FORKED_CHILD = """
import multiprocessing, os, sys, time
from repro.service import ServiceDaemon

def signal_and_block(running):
    running.set()
    time.sleep(600)

def fork_child_and_block(record, index, job, cached):
    context = multiprocessing.get_context("fork")
    running = context.Event()
    child = context.Process(target=signal_and_block, args=(running,))
    child.start()
    running.wait(60)
    print(os.getpid(), child.pid, flush=True)
    time.sleep(600)

ServiceDaemon(sys.argv[1], socket=False, on_cell=fork_child_and_block).run(drain=True)
"""


class TestLeases:
    """A claim is one rename out of ``queued/``: exactly one claimant wins."""

    def test_concurrent_claims_have_exactly_one_winner(self, tmp_path):
        queue = open_service(tmp_path)
        queue.submit("a" * 64, {})
        winners = []
        barrier = threading.Barrier(8)

        def race(index):
            contender = open_service(tmp_path)
            barrier.wait()
            record = contender.claim(daemon_id=f"d{index}")
            if record is not None:
                winners.append(record)

        threads = [threading.Thread(target=race, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(winners) == 1
        assert queue.counts()[STATE_RUNNING] == 1
        assert winners[0].daemon_id in {f"d{i}" for i in range(8)}


class TestOneDaemonPerDirectory:
    def test_second_daemon_is_refused_while_one_runs(
        self, tmp_path, trace_file, capsys
    ):
        root = tmp_path / "svc"
        client = ServiceClient(root, create=True, transport="files")
        client.submit(_request(trace_file, block_sizes=(8,)))
        started, release = threading.Event(), threading.Event()

        def hold(record, index, job, cached):
            started.set()
            release.wait(60)

        first = ServiceDaemon(root, socket=False, on_cell=hold)
        thread = threading.Thread(target=first.run, kwargs={"drain": True})
        thread.start()
        try:
            assert started.wait(60), "the first daemon never ran its job"
            # A second instance in this process opens its own file
            # description, so the flock conflicts here too.
            second = ServiceDaemon(root, socket=False)
            with pytest.raises(ServiceError, match="another daemon is serving"):
                second.run(drain=True)
            assert main(["serve", str(root), "--drain", "--no-socket"]) == 2
            assert "another daemon is serving" in capsys.readouterr().err
            # The refused daemons recovered nothing: the job is still running.
            assert client.queue.counts()[STATE_RUNNING] == 1
        finally:
            release.set()
            thread.join(60)
        assert not thread.is_alive()
        assert first.jobs_done == 1
        # Once the first daemon has returned, the next one drains normally.
        request = _request(trace_file, block_sizes=(16,))
        job_id = client.submit(request)["job_id"]
        assert second.run(drain=True) == 1
        assert client.queue.find(job_id).state == STATE_DONE
        assert client.result_text(job_id) == _direct(trace_file, request)

    def test_sigkill_with_a_surviving_forked_child_restarts_at_once(
        self, tmp_path, trace_file
    ):
        root = tmp_path / "svc"
        client = ServiceClient(root, create=True, transport="files")
        request = _request(trace_file)
        job_id = client.submit(request)["job_id"]
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            part for part in (src, env.get("PYTHONPATH")) if part
        )
        daemon = subprocess.Popen(
            [sys.executable, "-c", _DAEMON_WITH_FORKED_CHILD, str(root)],
            stdout=subprocess.PIPE, text=True, env=env,
        )
        child_pid = None
        try:
            line = daemon.stdout.readline()
            assert line, "the daemon exited before its first cell"
            daemon_pid, child_pid = (int(token) for token in line.split())
            assert daemon_pid == daemon.pid
            os.kill(daemon.pid, signal.SIGKILL)
            daemon.wait(timeout=60)
            os.kill(child_pid, 0)  # the forked child outlived the daemon
            assert client.queue.find(job_id).state == STATE_RUNNING
            # The child's copy of the lock descriptor was closed at fork, so
            # the lock died with the daemon and the restart starts at once.
            restarted = ServiceDaemon(root, socket=False)
            assert restarted.run(drain=True) == 1
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait()
            daemon.stdout.close()
            if child_pid is not None:
                try:
                    os.kill(child_pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        record = client.queue.find(job_id)
        assert record.state == STATE_DONE
        assert record.attempts == 2
        # The cell persisted before the kill was loaded, not re-simulated.
        assert record.cells_cached >= 1
        assert client.result_text(job_id) == _direct(trace_file, request)

    def test_running_record_from_an_older_build_is_recovered(
        self, tmp_path, trace_file
    ):
        root = tmp_path / "svc"
        client = ServiceClient(root, create=True, transport="files")
        request = _request(trace_file)
        job_id = client.submit(request)["job_id"]
        # Leave the job claimed the way an older build did: the record names
        # its daemon and carries an unexpired claim lease, and that daemon's
        # fresh heartbeat sits in the per-daemon directories.
        queued = root / "jobs" / "queued" / f"{job_id}.json"
        payload = json.loads(queued.read_text(encoding="utf-8"))
        now = time.time()
        payload.update(
            state="running", attempts=1, started_at=now,
            daemon_id="old-host-1", lease_expires_at=now + 3600.0,
        )
        (root / "jobs" / "running" / f"{job_id}.json").write_text(json.dumps(payload))
        queued.unlink()
        (root / "daemons").mkdir()
        (root / "sockets").mkdir()
        (root / "daemons" / "old-host-1.json").write_text(json.dumps({
            "schema": 1, "daemon_id": "old-host-1", "pid": os.getpid(),
            "updated_at": now,
        }))
        assert client.queue.find(job_id).state == STATE_RUNNING
        assert ServiceDaemon(root, socket=False).run(drain=True) == 1
        record = client.queue.find(job_id)
        assert record.state == STATE_DONE
        assert record.attempts == 2
        assert client.result_text(job_id) == _direct(trace_file, request)


def _serve_in_thread(root, **kwargs):
    """Start a daemon in a thread and return once it serves its socket."""
    daemon = ServiceDaemon(root, **kwargs)
    thread = threading.Thread(target=daemon.run, kwargs={"drain": False}, daemon=True)
    thread.start()
    assert daemon.ready.wait(10.0), "daemon never became ready"
    assert daemon.socket_server is not None and daemon.socket_server.running
    return daemon, thread


def _stop(daemon, thread):
    daemon.stop()
    thread.join(timeout=10.0)
    assert not thread.is_alive(), "daemon did not stop"


class TestSocketTransport:
    def test_socket_roundtrip_matches_direct_run(self, tmp_path, trace_file):
        root = tmp_path / "svc"
        ServiceClient(root, create=True)
        daemon, thread = _serve_in_thread(root, daemon_id="sock1")
        try:
            client = ServiceClient(root, transport="socket")
            request = _request(trace_file)
            response = client.submit(request)
            assert client.using_socket
            record = client.wait(response["job_id"], timeout=60.0)
            assert record.state == STATE_DONE
            served = client.result_text(response["job_id"])
            direct = run_sweep(
                load_trace_file(trace_file), request.build_jobs()
            ).merged().to_json()
            assert served == direct
            status = client.status(response["job_id"])
            assert status["job"]["state"] == STATE_DONE
            # Over the socket, stats carry the running daemon's live counters.
            stats = client.stats()
            assert stats["daemon"]["daemon_id"] == "sock1"
            assert stats["daemon"]["socket"] == str(client.queue.socket_path())
            client.close()
        finally:
            _stop(daemon, thread)

    def test_socket_and_polling_serve_identical_payloads(
        self, tmp_path, trace_file
    ):
        root = tmp_path / "svc"
        ServiceClient(root, create=True)
        daemon, thread = _serve_in_thread(root, daemon_id="sock2")
        try:
            socket_client = ServiceClient(root, transport="socket")
            files_client = ServiceClient(root, transport="files")
            request = _request(trace_file)
            job_id = socket_client.submit(request)["job_id"]
            files_client.wait(job_id, timeout=60.0, poll_interval=0.01)
            assert socket_client.result_text(job_id) == files_client.result_text(
                job_id
            )
            socket_client.close()
        finally:
            _stop(daemon, thread)

    def test_auto_transport_falls_back_without_daemon(self, tmp_path, trace_file):
        root = tmp_path / "svc"
        client = ServiceClient(root, create=True)  # transport="auto"
        response = client.submit(_request(trace_file))
        assert response["state"] == STATE_QUEUED
        assert not client.using_socket

    def test_socket_transport_requires_live_daemon(self, tmp_path, trace_file):
        root = tmp_path / "svc"
        ServiceClient(root, create=True)
        client = ServiceClient(root, transport="socket")
        with pytest.raises(ServiceError, match="no live daemon socket"):
            client.submit(_request(trace_file))

    def test_stale_socket_file_is_skipped(self, tmp_path):
        queue = open_service(tmp_path)
        queue.socket_path().touch()
        assert discover_socket(queue) is None

    def test_rejects_unknown_transport(self, tmp_path):
        with pytest.raises(ServiceError, match="transport"):
            ServiceClient(tmp_path, create=True, transport="carrier-pigeon")


class TestSchedulerWake:
    """An idle daemon is woken, never left to sleep out its poll.

    Every daemon here polls once an hour, so a job can only make progress
    if a socket submit, a finished job or ``stop()`` wakes the scheduler.
    """

    def test_socket_submit_wakes_an_idle_daemon(self, tmp_path, trace_file):
        root = tmp_path / "svc"
        daemon, thread = _serve_in_thread(root, poll_interval=3600.0)
        try:
            client = ServiceClient(root, transport="socket")
            request = _request(trace_file)
            job_id = client.submit(request)["job_id"]
            assert client.wait(job_id, timeout=30.0).state == STATE_DONE
            assert client.result_text(job_id) == _direct(trace_file, request)
            client.close()
        finally:
            _stop(daemon, thread)

    def test_stop_wakes_an_idle_daemon(self, tmp_path):
        daemon, thread = _serve_in_thread(tmp_path / "svc", poll_interval=3600.0)
        _stop(daemon, thread)
        assert not daemon.ready.is_set()

    def test_finished_job_wakes_a_queued_one(self, tmp_path, trace_file):
        # Two held jobs fill both slots, so a third waits queued.  The end
        # of one held job must wake the pooled scheduler to claim it.
        held = {}  # job id -> its release, for the first two jobs to persist a cell
        held_lock = threading.Lock()
        both_held = threading.Event()

        def hold_two_jobs(record, index, job, cached):
            with held_lock:
                if record.id not in held and len(held) < 2:
                    held[record.id] = threading.Event()
                    if len(held) == 2:
                        both_held.set()
                release = held.get(record.id)
            if release is not None:
                release.wait(30.0)

        root = tmp_path / "svc"
        daemon, thread = _serve_in_thread(
            root, workers=2, poll_interval=3600.0, on_cell=hold_two_jobs
        )
        try:
            client = ServiceClient(root, transport="socket")
            requests = [
                _request(trace_file, block_sizes=(block_size,))
                for block_size in (8, 16, 32)
            ]
            first, second = (client.submit(r)["job_id"] for r in requests[:2])
            assert both_held.wait(30.0), "two jobs never ran at once"
            third = client.submit(requests[2])["job_id"]
            assert client.queue.find(third).state == STATE_QUEUED
            held[first].set()
            assert client.wait(third, timeout=30.0).state == STATE_DONE
            held[second].set()
            for job_id, request in zip((first, second, third), requests):
                assert client.wait(job_id, timeout=30.0).state == STATE_DONE
                assert client.result_text(job_id) == _direct(trace_file, request)
            client.close()
        finally:
            with held_lock:
                releases = list(held.values())
            for release in releases:
                release.set()
            _stop(daemon, thread)


class TestWaitBackoff:
    def test_wait_returns_promptly_on_completion(self, tmp_path):
        queue = open_service(tmp_path)
        queue.submit("a" * 64, {})
        client = ServiceClient(tmp_path, transport="files")

        def finish():
            time.sleep(0.15)
            record = queue.claim(daemon_id="d1")
            queue.complete(record, "payload")

        worker = threading.Thread(target=finish)
        begin = time.perf_counter()
        worker.start()
        record = client.wait("a" * 64, timeout=10.0, poll_interval=0.01)
        elapsed = time.perf_counter() - begin
        worker.join()
        assert record.state == STATE_DONE
        # Backoff is capped: even with jitter the wait lands well inside
        # the timeout and reasonably close to the actual completion.
        assert elapsed < 3.0

    def test_wait_times_out_with_backoff(self, tmp_path):
        queue = open_service(tmp_path)
        queue.submit("a" * 64, {})
        client = ServiceClient(tmp_path, transport="files")
        with pytest.raises(ServiceError, match="timed out"):
            client.wait("a" * 64, timeout=0.3, poll_interval=0.01)


class TestSocketWaitWakeUp:
    def test_a_finish_between_the_read_and_the_wait_is_not_lost(
        self, tmp_path, monkeypatch
    ):
        from repro.service import socketserver
        from repro.service.api import SERVICE_WIRE_VERSION

        queue = open_service(tmp_path)
        queue.submit("a" * 64, {})
        running = queue.claim(daemon_id="d1")
        server = socketserver.ServiceSocketServer(queue, "d1")
        # Waiting out one recheck would now take a minute: the handler has
        # to see the finish without it.
        monkeypatch.setattr(socketserver, "_WAIT_RECHECK_SECONDS", 60.0)

        def never_wait(timeout=None):
            raise AssertionError(f"the wait handler slept {timeout}s on a finished job")

        monkeypatch.setattr(server._finish_cond, "wait", never_wait)
        find = queue.find
        reads = []

        def find_then_finish(job_id):
            reads.append(job_id)
            record = find(job_id)
            if len(reads) == 1:
                # The job finishes, and the daemon notifies, after this read
                # saw it running and before the handler could wait.
                assert record.state == STATE_RUNNING
                queue.complete(running, "payload")
                server.notify_job_finished()
            return record

        monkeypatch.setattr(queue, "find", find_then_finish)
        response = server._dispatch(
            {"wire": SERVICE_WIRE_VERSION, "op": "wait", "job": "a" * 64, "timeout": 120}
        )
        assert response["ok"] and response["job"]["state"] == STATE_DONE
        assert len(reads) == 2


class TestQueueGc:
    def test_gc_evicts_only_old_finished_jobs(self, tmp_path):
        queue = open_service(tmp_path)
        queue.submit("a" * 64, {})
        queue.submit("b" * 64, {})
        queue.submit("c" * 64, {})
        record = queue.claim(daemon_id="d1")
        queue.complete(record, "payload-a")
        queue.claim(daemon_id="d1")  # leave one running
        future = time.time() + 1_000_000.0
        dry = queue.gc(retain_seconds=10.0, dry_run=True, now=future)
        assert dry["done"] == 1 and dry["results"] == 1
        assert queue.counts()[STATE_DONE] == 1  # dry run deleted nothing
        report = queue.gc(retain_seconds=10.0, now=future)
        assert report["done"] == 1 and report["results"] == 1
        assert report["bytes"] > 0
        counts = queue.counts()
        # Queued and running jobs are never gc targets.
        assert counts[STATE_DONE] == 0
        assert counts[STATE_QUEUED] == 1 and counts[STATE_RUNNING] == 1
        with pytest.raises(ServiceError, match="no job"):
            queue.find("a" * 64)

    def test_gc_keeps_jobs_inside_retention(self, tmp_path):
        queue = open_service(tmp_path)
        queue.submit("a" * 64, {})
        queue.complete(queue.claim(daemon_id="d1"), "payload")
        report = queue.gc(retain_seconds=3600.0)
        assert report["kept"] == 1 and report["done"] == 0
        assert queue.result_text("a" * 64) == "payload"

    def test_cli_queue_gc(self, tmp_path, capsys):
        root = tmp_path / "svc"
        queue = open_service(root)
        queue.submit("a" * 64, {})
        queue.complete(queue.claim(daemon_id="d1"), "payload")
        assert main(["queue", "gc", str(root), "--dry-run"]) == 0
        assert "would evict" in capsys.readouterr().out
        assert main(["queue", "gc", str(root), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True and payload["kept"] == 1


class TestHeartbeatHardening:
    def test_heartbeat_failure_counts_instead_of_crashing(self, tmp_path):
        daemon = ServiceDaemon(tmp_path / "svc", daemon_id="d1", socket=False)
        daemon._write_heartbeat()
        assert daemon.heartbeat_errors == 0
        # Put a directory where the heartbeat file goes: every atomic
        # rename onto it now fails.
        path = daemon.queue.heartbeat_path()
        path.unlink()
        path.mkdir()
        daemon._write_heartbeat()
        daemon._write_heartbeat()
        assert daemon.heartbeat_errors == 2
        # Remove the obstacle: the next heartbeat lands and carries the
        # error trail for operators.
        path.rmdir()
        daemon._write_heartbeat()
        assert daemon.heartbeat_errors == 2
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["heartbeat_errors"] == 2
        assert payload["last_heartbeat_error"]
