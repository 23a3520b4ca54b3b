"""The service daemon: a long-running scheduler over the durable job queue.

One :class:`ServiceDaemon` drains a :class:`~repro.service.queue.JobQueue`
through :func:`repro.engine.sweep.run_sweep`'s fused executor, backed by a
persistent result store.  The combination gives the service its three core
properties:

**Coalescing.**  Duplicate submissions never reach the daemon at all (the
queue keys jobs by canonical content identity).  A cell shared by
*different* jobs is simulated once when they run one after another: the
later job loads it from the store.  With ``workers`` above 1, two jobs that
run at the same time and share a cell may both simulate it; each store write
replaces the artifact atomically with the same bytes, so the payloads and
the store stay byte-identical.

**Durability.**  The store is the record of finished cells: a cell's
artifact is written the moment it finishes inside ``run_sweep`` (a pooled
sweep persists a worker's batch when the batch completes).  The job record
carries progress for ``queue status`` only.  It is written at the claim
(with the submitted cell count), once per *fresh* cell after that cell's
store write, and at the finish; a store hit advances the counts in memory
only, since it adds nothing the store does not already hold.  A daemon
killed mid-job therefore loses at most the cell (or, pooled, the batches)
it was computing; after a restart, :meth:`JobQueue.recover` re-queues the
job (resetting its counts) and the re-run pays only for unpersisted cells.

**Byte-identity.**  The daemon runs exactly the engine jobs a direct sweep
would run and stores the merged payload verbatim, so a served result equals
``run_sweep`` executed directly — cold, warm, killed-and-resumed alike.

The bounded worker pool (``workers``) executes that many *jobs*
concurrently in threads; each job's sweep may additionally fan out over
``sweep_workers`` processes.  With ``workers=1`` execution is inline in
the scheduler loop, which is also what makes the kill-mid-job semantics
deterministic to test.

**One daemon per directory.**  :meth:`ServiceDaemon.run` holds an
exclusive ``flock`` on ``<root>/daemon.lock`` from before recovery until it
returns, so a second daemon on the same directory is refused with a
:class:`~repro.errors.ServiceError`.  The kernel drops the lock when its
holder dies, so a restart after a crash starts at once, and recovery can
re-queue every running job it finds.  The daemon serves a Unix-domain
socket at ``<root>/daemon.sock``, giving clients a polling-free fast path.
"""

from __future__ import annotations

import fcntl
import json
import multiprocessing.util
import os
import re
import socket as _socketmod
import time
from concurrent.futures import Future, ThreadPoolExecutor
from pathlib import Path
from threading import Event, Lock
from typing import Any, Callable, Dict, List, Optional, Union

from repro.engine.sweep import SweepJob, run_sweep
from repro.errors import ReproError, ServiceError, StoreError, SweepAborted
from repro.obs.metrics import get_registry
from repro.obs.tracing import TELEMETRY_DIR, SpanLog
from repro.service.api import SweepRequest
from repro.service.queue import (
    DEFAULT_EVENT_RETAIN_SECONDS,
    DEFAULT_JOB_RETAIN_SECONDS,
    STATE_QUEUED,
    JobQueue,
    JobRecord,
    open_service,
)
from repro.service.socketserver import ServiceSocketServer
from repro.store import ResultStore, open_store
from repro.store.resultstore import _atomic_replace
from repro.trace.files import trace_name_for_path
from repro.trace.planecache import CachedPlane, TracePlaneCache, coerce_plane_cache

#: Daemon ids name the span log file, so keep them tame.
_DAEMON_ID_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


def default_daemon_id() -> str:
    """The id a daemon takes when none is given: ``<host>-<pid>``."""
    try:
        host = _socketmod.gethostname()
    except OSError:  # pragma: no cover - hostname lookup failure
        host = ""
    host = re.sub(r"[^A-Za-z0-9._-]", "-", host) or "local"
    return f"{host}-{os.getpid()}"


class ServiceDaemon:
    """Scheduler draining one service directory's queue through the store.

    Parameters
    ----------
    root:
        The service directory (created if missing).
    store:
        Result store backing execution — a :class:`ResultStore`, a path, or
        ``None`` for the default ``<root>/store``.  Sharing this store
        between the daemon and direct ``repro-dew sweep --store`` runs is
        supported (and is what makes them warm each other).
    workers:
        Jobs executed concurrently.  ``1`` (the default) runs jobs inline
        in the scheduler loop; more uses a bounded thread pool.
    sweep_workers:
        Process fan-out *within* each job's sweep (``run_sweep(workers=)``).
    poll_interval:
        Longest idle wait between scheduler ticks, in seconds; must be
        positive.  It bounds only how late a job submitted as a file is
        claimed, and how often an idle daemon renews its heartbeat: a
        socket submit, a finished job and :meth:`stop` wake the scheduler
        at once.
    on_cell:
        Optional observability hook called as ``on_cell(record, index,
        job, cached)`` after every persisted cell — the test suite uses it
        to deterministically kill the daemon mid-job.
    daemon_id:
        This daemon's label: its heartbeat and span log name it, and its
        claims record it.  Defaults to ``<host>-<pid>``.
    socket:
        Serve the Unix-domain-socket front end (default).  A socket that
        fails to bind downgrades to polling-only with a heartbeat note
        rather than failing the daemon.
    job_retain_seconds:
        Retention window for finished job records, applied by the startup
        ``queue gc`` sweep.
    trace_cache:
        The trace artifact cache (see :mod:`repro.trace.planecache`):
        ``None`` (default) opens ``<root>/tracecache``, ``False`` disables,
        a path or open :class:`~repro.trace.planecache.TracePlaneCache`
        overrides.  With a warm cache the daemon executes a job without
        ever opening the trace file: the fingerprint comes from the
        ``(path, mtime, size)`` sidecar and the trace's artifact is
        attached as a read-only mmap.
    """

    def __init__(
        self,
        root: Union[str, os.PathLike],
        store: Optional[Union[str, os.PathLike, ResultStore]] = None,
        workers: int = 1,
        sweep_workers: int = 1,
        poll_interval: float = 0.1,
        on_cell: Optional[Callable[[JobRecord, int, SweepJob, bool], None]] = None,
        event_retain_seconds: float = DEFAULT_EVENT_RETAIN_SECONDS,
        daemon_id: Optional[str] = None,
        socket: bool = True,
        job_retain_seconds: float = DEFAULT_JOB_RETAIN_SECONDS,
        trace_cache: Union[None, bool, str, os.PathLike, TracePlaneCache] = None,
    ) -> None:
        poll_interval = float(poll_interval)
        if not poll_interval > 0:
            # A zero wait would spin the idle loop, writing a heartbeat on
            # every pass.
            raise ServiceError(f"poll interval must be positive, got {poll_interval:g}s")
        self.poll_interval = poll_interval
        self.queue: JobQueue = open_service(root)
        if store is None:
            store = Path(self.queue.root) / "store"
        self.store: ResultStore = (
            store if isinstance(store, ResultStore) else open_store(store)
        )
        # The trace artifact cache: shared with submitting clients (for the
        # fingerprint sidecar) and with later daemon runs, so the service
        # parses each corpus exactly once.  None -> <root>/tracecache;
        # False disables.  An
        # unusable cache degrades to trace loading rather than failing
        # the daemon — it is an accelerator, never a dependency.
        self.trace_cache: Optional[TracePlaneCache] = None
        if trace_cache is not False:
            if trace_cache is None or trace_cache is True:
                trace_cache = Path(self.queue.root) / "tracecache"
            try:
                self.trace_cache = coerce_plane_cache(trace_cache)
            except (OSError, ReproError):
                self.trace_cache = None
        self.daemon_id = default_daemon_id() if daemon_id is None else str(daemon_id)
        if not _DAEMON_ID_RE.match(self.daemon_id):
            raise ServiceError(
                f"daemon id {self.daemon_id!r} is not a safe file name "
                "(letters, digits, dot, underscore, dash; max 64 chars)"
            )
        self.socket_enabled = bool(socket)
        self.socket_server: Optional[ServiceSocketServer] = None
        self.socket_error: Optional[str] = None
        self.job_retain_seconds = float(job_retain_seconds)
        self.workers = max(int(workers), 1)
        self.sweep_workers = max(int(sweep_workers), 1)
        self.on_cell = on_cell
        self.event_retain_seconds = float(event_retain_seconds)
        self.jobs_done = 0
        self.jobs_failed = 0
        self.jobs_cancelled = 0
        self.cells_executed = 0
        self.cells_cached = 0
        #: Seconds each phase took, summed over the jobs finished as done.
        self.phase_seconds: Dict[str, float] = {}
        self.heartbeat_errors = 0
        self._last_heartbeat_error: Optional[str] = None
        # Sticky degradation notes, keyed by condition ("socket", ...).
        # Unlike the transient `note` argument to _write_heartbeat, these
        # survive every renewal until the condition clears — the original
        # bug was a socket-bind failure silently erased by the next
        # heartbeat, leaving `queue stats` claiming a healthy socket.
        self._notes: Dict[str, str] = {}
        registry = get_registry()
        self._metric_jobs_done = registry.counter(
            "daemon_jobs_done_total", help="Jobs this process finished as done."
        )
        self._metric_jobs_failed = registry.counter(
            "daemon_jobs_failed_total", help="Jobs this process finished as failed."
        )
        self._metric_jobs_cancelled = registry.counter(
            "daemon_jobs_cancelled_total",
            help="Jobs this process finished as cancelled.",
        )
        self._metric_cells_executed = registry.counter(
            "daemon_cells_executed_total", help="Sweep cells simulated fresh."
        )
        self._metric_cells_cached = registry.counter(
            "daemon_cells_cached_total", help="Sweep cells loaded from the store."
        )
        self._metric_heartbeat_errors = registry.counter(
            "daemon_heartbeat_errors_total", help="Failed heartbeat writes."
        )
        self._metric_job_seconds = registry.histogram(
            "daemon_job_seconds", help="Wall-clock seconds per finished job."
        )
        # One span log per daemon id under <root>/telemetry/ — every claim,
        # cell and terminal transition lands here with the submission's
        # trace id, so one id can be followed across daemon restarts.
        self.span_log = SpanLog(
            Path(self.queue.root) / TELEMETRY_DIR,
            name=f"spans-{self.daemon_id}",
            source=self.daemon_id,
        )
        self._stopping = False
        # Set by a socket submit, a finished pooled job and stop(); the
        # scheduler waits on it between ticks instead of sleeping.
        self._wake = Event()
        #: Set once the daemon serves: its socket is up (if it could bind)
        #: and its first heartbeat is written.  Cleared when run() returns.
        self.ready = Event()
        self._started_at = time.time()
        self._lock = Lock()
        self._lock_fd: Optional[int] = None  # the held daemon.lock, in run()

    # -- lifecycle ---------------------------------------------------------------

    def stop(self) -> None:
        """Ask the scheduler loop to exit after the current job, if any."""
        self._stopping = True
        self._wake.set()

    def run(self, drain: bool = False, max_jobs: Optional[int] = None) -> int:
        """The scheduler loop; returns the number of jobs brought to an end.

        ``drain=True`` exits once no job is queued or running (batch
        mode — the CI smoke and the tests use it).
        ``max_jobs`` bounds how many jobs are finished before returning.
        The daemon first takes the directory's lock (raising
        :class:`~repro.errors.ServiceError` if another daemon holds it),
        then re-queues every running job (:meth:`JobQueue.recover`), prunes
        submit events and runs the ``queue gc`` retention sweep.
        """
        self._stopping = False
        self._acquire_lock()
        try:
            return self._serve(drain, max_jobs)
        finally:
            self.ready.clear()
            self._release_lock()

    def _serve(self, drain: bool, max_jobs: Optional[int]) -> int:
        recovered = self.queue.recover()
        # Startup is also when queue bookkeeping is compacted: submit
        # events are pruned (their count folds into the archive, keeping
        # the dedup ratio intact) and finished job records past the
        # retention window are evicted with their payloads.
        pruned = self.queue.prune_events(self.event_retain_seconds)
        evicted = self.queue.gc(self.job_retain_seconds)
        evicted_jobs = sum(
            count
            for state, count in evicted.items()
            if state not in ("results", "bytes", "kept")
        )
        notes = []
        if recovered:
            notes.append(f"recovered {len(recovered)} job(s)")
        if pruned:
            notes.append(f"pruned {pruned} submit event(s)")
        if evicted_jobs:
            notes.append(f"evicted {evicted_jobs} finished job(s)")
        self._start_socket()
        self._write_heartbeat(note="; ".join(notes) if notes else None)
        self.ready.set()
        finished_before = self._finished_total()
        try:
            if self.workers == 1:
                self._run_inline(drain, max_jobs, finished_before)
            else:
                self._run_pooled(drain, max_jobs, finished_before)
        finally:
            self._stop_socket()
            self._write_heartbeat(note="stopped")
        return self._finished_total() - finished_before

    def _acquire_lock(self) -> None:
        path = self.queue.lock_path()
        fd = None
        try:
            fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError as exc:
            if fd is not None:
                os.close(fd)
            if isinstance(exc, BlockingIOError):
                raise ServiceError(
                    f"another daemon is serving {self.queue.root} (it holds {path})"
                ) from None
            raise ServiceError(f"could not lock {path}: {exc}") from exc
        self._lock_fd = fd
        # A forked child shares the lock through its copy of the descriptor
        # (the lock belongs to the open file description).  Close that copy
        # in multiprocessing children (the --sweep-workers pool), or the
        # orphaned workers of a killed daemon would block its restart.
        multiprocessing.util.register_after_fork(self, ServiceDaemon._close_lock_fd)

    def _close_lock_fd(self) -> None:
        fd, self._lock_fd = self._lock_fd, None
        if fd is not None:
            os.close(fd)

    def _release_lock(self) -> None:
        if self._lock_fd is not None:
            fcntl.flock(self._lock_fd, fcntl.LOCK_UN)
        self._close_lock_fd()

    def _finished_total(self) -> int:
        return self.jobs_done + self.jobs_failed + self.jobs_cancelled

    def _start_socket(self) -> None:
        if not self.socket_enabled:
            return
        server = ServiceSocketServer(
            self.queue, self.daemon_id, stats_source=self, on_submit=self._wake.set
        )
        try:
            server.start()
        except ServiceError as exc:
            # The socket is an accelerator: a daemon that cannot bind one
            # (path length limits, odd filesystems) still serves polling.
            # The degradation note is *sticky*: it rides every subsequent
            # heartbeat renewal (not just the next one) until the socket
            # comes up, so `queue stats` keeps showing the downgrade.
            self.socket_error = str(exc)
            self._notes["socket"] = f"socket disabled: {exc}"
            return
        self.socket_server = server
        self.socket_error = None
        self._notes.pop("socket", None)

    def _stop_socket(self) -> None:
        server, self.socket_server = self.socket_server, None
        if server is not None:
            server.stop()

    def _finished_enough(self, finished_before: int, max_jobs: Optional[int]) -> bool:
        if max_jobs is None:
            return False
        return self._finished_total() - finished_before >= max_jobs

    def _run_inline(
        self, drain: bool, max_jobs: Optional[int], finished_before: int
    ) -> None:
        while True:
            # Cleared before the checks and the claim: a submit or stop that
            # they miss sets it again, so the wait below returns at once.
            self._wake.clear()
            if self._stopping or self._finished_enough(finished_before, max_jobs):
                break
            record = self.queue.claim(daemon_id=self.daemon_id)
            if record is None:
                self._write_heartbeat()
                if drain and not self.queue.records(STATE_QUEUED):
                    break
                self._wake.wait(self.poll_interval)
                continue
            self._execute(record)
            self._write_heartbeat()

    def _run_pooled(
        self, drain: bool, max_jobs: Optional[int], finished_before: int
    ) -> None:
        pending: List[Future] = []
        with ThreadPoolExecutor(max_workers=self.workers) as pool:
            while True:
                self._wake.clear()  # before the checks, as in _run_inline
                pending = [future for future in pending if not future.done()]
                if self._stopping or self._finished_enough(finished_before, max_jobs):
                    break
                claimed = None
                if len(pending) < self.workers:
                    claimed = self.queue.claim(daemon_id=self.daemon_id)
                if claimed is not None:
                    future = pool.submit(self._execute, claimed)
                    # A done callback runs once done() holds, so the woken
                    # scheduler sees the slot free and claims a job that
                    # waited for one.
                    future.add_done_callback(lambda _: self._wake.set())
                    pending.append(future)
                    continue
                self._write_heartbeat()
                if drain and not pending and not self.queue.records(STATE_QUEUED):
                    break
                self._wake.wait(self.poll_interval)
            for future in pending:
                future.result()

    # -- execution ---------------------------------------------------------------

    def _resolve_sweep_input(self, request: SweepRequest, expected: str):
        """The cheapest valid sweep input for a claimed job.

        Warm path: when the fingerprint sidecar attests the on-disk file
        still matches the submitted fingerprint *and* the cache holds that
        trace's artifact, attach it — zero text parses, zero hashing, only
        walked pages are ever read.  Otherwise load the trace (the sidecar
        still skips the hash when only the artifact is missing) and let
        ``run_sweep(trace_cache=...)`` persist the artifact for the next job
        over this corpus.
        """
        cache = self.trace_cache
        if cache is not None and expected:
            known = cache.cached_fingerprint(request.trace_path)
            if known == expected:
                plane = cache.get(
                    expected, trace_name=trace_name_for_path(request.trace_path)
                )
                if plane is not None:
                    return plane
        trace = request.load_trace(cache=cache)
        fingerprint = trace.fingerprint()
        if expected and fingerprint != expected:
            raise ServiceError(
                f"trace {request.trace_path} changed since submission "
                f"(fingerprint {fingerprint[:12]}... != {expected[:12]}...)"
            )
        return trace

    def _execute(self, record: JobRecord) -> None:
        started = time.perf_counter()
        sweep_input = None
        # The submission's trace id rides the durable job record, so it
        # survives daemon crashes — the daemon that re-executes a
        # recovered job continues the same trace.
        trace_id = record.request.get("trace_id") or None
        self.span_log.emit(
            "job_claimed",
            trace_id=trace_id,
            job_id=record.id,
            attempt=record.attempts,
            queue_wait_s=round(record.started_at - record.submitted_at, 6),
        )
        try:
            request = SweepRequest.from_wire(record.request)
            jobs = request.build_jobs()
            expected = str(record.request.get("trace_fingerprint", ""))
            load_start = time.perf_counter()
            sweep_input = self._resolve_sweep_input(request, expected)
            load_seconds = time.perf_counter() - load_start
            accesses = len(sweep_input)
            # The claim wrote the record with the submitted cell count; the
            # counts below reach disk with the next fresh cell or the finish.
            record.cells_total = len(jobs)
            record.cells_done = 0
            record.cells_cached = 0

            def progress(index: int, job: SweepJob, results, cached: bool) -> None:
                record.cells_done += 1
                if cached:
                    record.cells_cached += 1
                else:
                    self.queue.update_running(record)
                self.span_log.emit(
                    "cell",
                    trace_id=trace_id,
                    job_id=record.id,
                    index=index,
                    cached=cached,
                    engine=job.engine,
                    label=job.label(),
                    accesses=accesses,
                    seconds=None if cached else round(results.elapsed_seconds, 6),
                    counters=(
                        None if cached or results.counters is None
                        else results.counters.as_dict()
                    ),
                    walk=results.walk,
                )
                if self.on_cell is not None:
                    self.on_cell(record, index, job, cached)
                # Cancel requests are honored at cell granularity: the cell
                # just persisted stays in the store and the rest of the
                # sweep is abandoned: a serial sweep runs no further cell,
                # and a pooled one tears down its pool before the exception
                # reaches the handler below.
                if self.queue.cancel_requested(record.id):
                    raise SweepAborted(
                        f"job {record.id[:12]} cancelled after "
                        f"{record.cells_done}/{record.cells_total} cell(s)"
                    )

            outcome = run_sweep(
                sweep_input,
                jobs,
                workers=self.sweep_workers,
                store=self.store,
                on_result=progress,
                trace_cache=self.trace_cache,
            )
            merged = outcome.merged()
            encode_start = time.perf_counter()
            payload = merged.to_json()
            encode_seconds = time.perf_counter() - encode_start
            record.execute_seconds = time.perf_counter() - started
            phases = {
                name: round(value, 6)
                for name, value in dict(
                    outcome.phases, load=load_seconds, encode=encode_seconds
                ).items()
            }
            record.extra.update(
                {
                    "cached_jobs": outcome.cached_jobs,
                    "executed_jobs": outcome.executed_jobs,
                    "trace": outcome.trace_name,
                    "phases": phases,
                    "minor_faults": outcome.minor_faults,
                }
            )
            self.queue.complete(record, payload)
            with self._lock:
                self.jobs_done += 1
                self.cells_executed += outcome.executed_jobs
                self.cells_cached += outcome.cached_jobs
                for name, seconds in phases.items():
                    self.phase_seconds[name] = self.phase_seconds.get(name, 0.0) + seconds
            self._metric_jobs_done.inc()
            self._metric_cells_executed.inc(outcome.executed_jobs)
            self._metric_cells_cached.inc(outcome.cached_jobs)
            self._metric_job_seconds.observe(record.execute_seconds)
            self.span_log.emit(
                "job_done",
                trace_id=trace_id,
                job_id=record.id,
                seconds=round(record.execute_seconds, 6),
                cells_done=record.cells_done,
                cells_cached=record.cells_cached,
                phases=phases,
                minor_faults=outcome.minor_faults,
                engine_overhead_s=(
                    None
                    if outcome.engine_overhead_seconds is None
                    else round(outcome.engine_overhead_seconds, 6)
                ),
            )
        except SweepAborted as exc:
            record.execute_seconds = time.perf_counter() - started
            record.error = str(exc)
            self.queue.cancel_running(record)
            with self._lock:
                self.jobs_cancelled += 1
            self._metric_jobs_cancelled.inc()
            self.span_log.emit(
                "job_cancelled",
                trace_id=trace_id,
                job_id=record.id,
                seconds=round(record.execute_seconds, 6),
                cells_done=record.cells_done,
            )
        except ReproError as exc:
            record.execute_seconds = time.perf_counter() - started
            self.queue.fail(record, str(exc))
            with self._lock:
                self.jobs_failed += 1
            self._metric_jobs_failed.inc()
            self.span_log.emit(
                "job_failed", trace_id=trace_id, job_id=record.id, error=str(exc)
            )
        except Exception as exc:  # noqa: BLE001 - a job must never kill the daemon
            record.execute_seconds = time.perf_counter() - started
            self.queue.fail(record, f"{type(exc).__name__}: {exc}")
            with self._lock:
                self.jobs_failed += 1
            self._metric_jobs_failed.inc()
            self.span_log.emit(
                "job_failed",
                trace_id=trace_id,
                job_id=record.id,
                error=f"{type(exc).__name__}: {exc}",
            )
        finally:
            if isinstance(sweep_input, CachedPlane):
                sweep_input.close()
            server = self.socket_server
            if server is not None:
                server.notify_job_finished()

    # -- observability -----------------------------------------------------------

    def heartbeat(self) -> Dict[str, Any]:
        """The daemon's current counters (what ``stats`` reports)."""
        with self._lock:
            phase_seconds = {
                name: round(seconds, 6) for name, seconds in sorted(self.phase_seconds.items())
            }
        server = self.socket_server
        return {
            "schema": 1,
            "daemon_id": self.daemon_id,
            "pid": os.getpid(),
            "started_at": self._started_at,
            "updated_at": time.time(),
            "workers": self.workers,
            "sweep_workers": self.sweep_workers,
            "jobs_done": self.jobs_done,
            "jobs_failed": self.jobs_failed,
            "jobs_cancelled": self.jobs_cancelled,
            "cells_executed": self.cells_executed,
            "cells_cached": self.cells_cached,
            "phase_seconds": phase_seconds,
            "heartbeat_errors": self.heartbeat_errors,
            "socket": str(server.path) if server is not None and server.running else None,
            "notes": [self._notes[key] for key in sorted(self._notes)],
            "store": self.store.stats(),
            "trace_cache": (
                self.trace_cache.stats() if self.trace_cache is not None else None
            ),
            # The whole process registry rides every heartbeat, so `queue
            # stats`, `queue top` and `repro-dew metrics` read it from the
            # file when no socket answers.
            "metrics": get_registry().snapshot(),
        }

    def _write_heartbeat(self, note: Optional[str] = None) -> None:
        """Atomically publish the heartbeat; never let it kill the daemon.

        A service root deleted (or made unwritable) underneath a running
        daemon turns renewal failures into a counted, observable condition
        instead of a crash: the daemon keeps draining, ``heartbeat_errors``
        climbs, and operators see the last error in the next heartbeat
        that does land.
        """
        payload = self.heartbeat()
        # The legacy scalar `note` stays populated for old readers: a
        # transient note (startup summary, "stopped") is joined with the
        # sticky degradation notes; a renewal without one backfills from
        # the sticky set instead of erasing it.
        sticky = payload.get("notes") or []
        parts = ([note] if note else []) + [text for text in sticky if text != note]
        if parts:
            payload["note"] = "; ".join(parts)
        if self._last_heartbeat_error:
            payload["last_heartbeat_error"] = self._last_heartbeat_error
        try:
            _atomic_replace(
                self.queue.heartbeat_path(),
                lambda handle: json.dump(payload, handle, sort_keys=True),
                mode="w",
                prefix=".tmp-heartbeat-",
            )
        except (OSError, StoreError) as exc:
            self.heartbeat_errors += 1
            self._last_heartbeat_error = str(exc)
            self._metric_heartbeat_errors.inc()
