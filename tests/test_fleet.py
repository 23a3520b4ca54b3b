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
import re
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
    STATE_CANCELLED,
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

    def test_reads_never_cross_the_socket(self, tmp_path, trace_file):
        root = tmp_path / "svc"
        queue = ServiceClient(root, create=True).queue
        # A failed job, which the daemon never claims, for the cancel below.
        queue.submit("f" * 64, {})
        queue.fail(queue.claim(daemon_id="gone"), "left to cancel")
        daemon, thread = _serve_in_thread(
            root, daemon_id="reads", poll_interval=3600.0
        )
        server = daemon.socket_server
        try:
            client = ServiceClient(root, transport="socket")
            files_client = ServiceClient(root, transport="files")
            request = _request(trace_file)
            job_id = client.submit(request)["job_id"]
            assert client.wait(job_id, timeout=60.0).state == STATE_DONE
            served = server.requests_served
            # Reads go to the files, so they give what a files client reads.
            direct = _direct(trace_file, request)
            assert client.result_text(job_id) == files_client.result_text(job_id) == direct
            assert (
                client.result_frame(job_id).to_bytes()
                == files_client.result_frame(job_id).to_bytes()
            )
            assert client.status(job_id) == files_client.status(job_id)
            assert client.jobs() == files_client.jobs()
            assert server.requests_served == served
            # Each operation a live daemon adds to is one socket request.
            assert client.submit(request)["deduped"]
            assert server.requests_served == served + 1
            assert client.cancel("f" * 64)["job"]["state"] == STATE_CANCELLED
            assert server.requests_served == served + 2
            assert client.stats()["daemon"]["daemon_id"] == "reads"
            assert server.requests_served == served + 3
            transport = discover_socket(queue)
            for op in ("status", "result", "metrics"):
                response = transport.request({"wire": 1, "op": op, "job": job_id})
                assert response["ok"] is False
                assert f"unknown socket operation {op!r}" in response["error"]
            transport.close()
            client.close()
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
        # The first job is held at its first cell while a second is queued
        # through the files, which wakes nobody.  The end of the held job
        # must send the scheduler straight on to claim the queued one.
        held = []  # the id of the job held, once one is
        holding = threading.Event()
        release = threading.Event()

        def hold_the_first_job(record, index, job, cached):
            if not held:
                held.append(record.id)
                holding.set()
                release.wait(30.0)

        root = tmp_path / "svc"
        daemon, thread = _serve_in_thread(
            root, poll_interval=3600.0, on_cell=hold_the_first_job
        )
        try:
            client = ServiceClient(root, transport="socket")
            files_client = ServiceClient(root, transport="files")
            requests = [
                _request(trace_file, block_sizes=(block_size,))
                for block_size in (8, 16)
            ]
            first = client.submit(requests[0])["job_id"]
            assert holding.wait(30.0), "the first job never ran"
            assert held == [first]
            second = files_client.submit(requests[1])["job_id"]
            assert client.queue.find(second).state == STATE_QUEUED
            release.set()
            assert client.wait(second, timeout=30.0).state == STATE_DONE
            for job_id, request in zip((first, second), requests):
                assert client.queue.find(job_id).state == STATE_DONE
                assert client.result_text(job_id) == _direct(trace_file, request)
            client.close()
        finally:
            release.set()
            _stop(daemon, thread)


class TestServedPathWrites:
    """What a served request writes, pinned for every kind of request.

    Each request reports three things.  First, every ``os.replace``
    destination relative to the service root, with the job id and
    digest-named files (store objects, planes, fingerprint sidecars)
    reduced to placeholders.  Second, the files it creates in place: every
    submit, a coalesced one too, creates one empty, unsynced
    ``events/<nonce>.submit`` file.  Third, its ``os.fsync`` calls.  The
    daemon's heartbeat is left out: when it lands relative to a request is
    a race.
    """

    #: A job's claim is a rename out of ``queued/`` and then a rewrite.
    CLAIM = ["jobs/running/<job>.json"] * 2
    FINISH = ["results/<job>.json", "jobs/done/<job>.json"]
    FRESH_CELL = ["store/objects/<digest>.frame", "jobs/running/<job>.json"]

    def test_each_request_writes_exactly_these_files(
        self, tmp_path, trace_file, monkeypatch
    ):
        writes, fsyncs = [], []
        lock = threading.Lock()
        replace, fsync = os.replace, os.fsync

        def recorded_replace(source, target, *args, **kwargs):
            with lock:
                writes.append(str(target))
            return replace(source, target, *args, **kwargs)

        def counted_fsync(fd):
            with lock:
                fsyncs.append(fd)
            return fsync(fd)

        root = tmp_path / "svc"
        ServiceClient(root, create=True)
        monkeypatch.setattr(
            ServiceDaemon, "_write_heartbeat", lambda self, note=None: None
        )
        daemon, thread = _serve_in_thread(root, daemon_id="pin", poll_interval=3600.0)
        client = ServiceClient(root, transport="socket")

        events = root / "events"
        created = ["events/<nonce>.submit"]

        def served(request):
            """One request as a client makes it: submit, wait, read the frame."""
            writes.clear()
            fsyncs.clear()
            before = set(os.listdir(events))
            job_id = client.submit(request)["job_id"]
            assert client.wait(job_id, timeout=60.0).state == STATE_DONE
            client.result_frame(job_id)
            new_events = [
                "events/<nonce>.submit" if name.endswith(".submit") else name
                for name in sorted(set(os.listdir(events)) - before)
            ]
            with lock:
                paths = [
                    re.sub(
                        r"([0-9a-f]{2}/)?[0-9a-f]{64}",
                        "<digest>",
                        os.path.relpath(path, root).replace(job_id, "<job>"),
                    )
                    for path in writes
                ]
                return paths, new_events, len(fsyncs)

        monkeypatch.setattr(os, "replace", recorded_replace)
        monkeypatch.setattr(os, "fsync", counted_fsync)
        try:
            # The first request over a new trace: the client records its
            # fingerprint sidecar, the daemon its plane, and four fresh cells.
            first = _request(trace_file)
            assert served(first) == (
                ["tracecache/fingerprints/<digest>.json", "jobs/queued/<job>.json"]
                + self.CLAIM
                + ["tracecache/objects/<digest>.plane"]
                + self.FRESH_CELL * 4
                + self.FINISH,
                created,
                15,
            )
            # A distinct request with one fresh cell over the now-warm trace.
            fresh = _request(
                trace_file, block_sizes=(8,), associativities=(1,), policies=("fifo",),
                max_sets=64,
            )
            assert served(fresh) == (
                ["jobs/queued/<job>.json"] + self.CLAIM + self.FRESH_CELL + self.FINISH,
                created,
                7,
            )
            # A distinct request whose every cell is stored.
            warm = _request(trace_file, block_sizes=(16,))
            assert served(warm) == (
                ["jobs/queued/<job>.json"] + self.CLAIM + self.FINISH,
                created,
                5,
            )
            # A repeat coalesces onto the finished job: it replaces no file
            # and syncs nothing, but its submit event is still created.
            assert served(first) == ([], created, 0)
        finally:
            client.close()
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
