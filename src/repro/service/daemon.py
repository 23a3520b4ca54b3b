"""The service daemon: a long-running scheduler over the durable job queue.

One :class:`ServiceDaemon` drains a :class:`~repro.service.queue.JobQueue`
through :func:`repro.engine.sweep.run_sweep`'s fused executor, backed by a
persistent result store.  The combination gives the service its three core
properties:

**Coalescing.**  Duplicate submissions never reach the daemon at all (the
queue keys jobs by canonical content identity).  Cells shared by *different*
jobs cost zero extra simulation in two ways: cells already persisted are
loaded from the store instead of executed, and cells currently being
computed by another worker are *in flight* — a job overlapping in-flight
work is deferred (left queued) until the overlap clears, at which point its
overlapping cells are store hits.

**Durability.**  Cell completion is persisted twice over: the store write
happens the moment a cell's execution unit finishes inside ``run_sweep``
(the fused executor persists per decode-group batch — often a single cell,
at most the same-block-size cells that share one decode), and the job
record's progress counters are atomically rewritten from the job-granular
``on_result`` hook.  A daemon killed mid-job therefore loses at most the
batch it was computing; after a restart, :meth:`JobQueue.recover` re-queues
the job and the re-run pays only for unpersisted cells.

**Byte-identity.**  The daemon runs exactly the engine jobs a direct sweep
would run and stores the merged payload verbatim, so a served result equals
``run_sweep`` executed directly — cold, warm, killed-and-resumed alike.

The bounded worker pool (``workers``) executes that many *jobs*
concurrently in threads; each job's sweep may additionally fan out over
``sweep_workers`` processes.  With ``workers=1`` execution is inline in
the scheduler loop, which is also what makes the kill-mid-job semantics
deterministic to test.

**Fleet operation.**  Any number of daemons may drain the *same* service
directory and store: claims are atomic renames (exactly one winner), each
claim carries the claiming daemon's id plus a lease that the daemon renews
through its heartbeat file, and recovery (startup and periodic) re-queues
only jobs whose owner is provably gone — dead pid, stale heartbeat, or the
daemon's own previous life.  In-flight cell marks live on disk in the
shared store, so the overlap deferral that coalesces concurrent duplicate
work operates across the whole fleet, and each daemon serves a
Unix-domain socket giving clients a polling-free fast path.
"""

from __future__ import annotations

import json
import os
import re
import time
from concurrent.futures import Future, ThreadPoolExecutor
from pathlib import Path
from threading import Lock
from typing import Any, Callable, Dict, List, Optional, Union

from repro.engine.sweep import SweepJob, run_sweep
from repro.errors import ReproError, ServiceError, StoreError, SweepAborted
from repro.obs.metrics import get_registry
from repro.obs.tracing import TELEMETRY_DIR, SpanLog
from repro.service.api import SweepRequest
from repro.service.queue import (
    DEFAULT_EVENT_RETAIN_SECONDS,
    DEFAULT_JOB_RETAIN_SECONDS,
    DEFAULT_LEASE_SECONDS,
    STATE_QUEUED,
    JobQueue,
    JobRecord,
    _local_host,
    open_service,
)
from repro.service.socketserver import ServiceSocketServer
from repro.store import ResultStore, StoreKey, open_store
from repro.store.resultstore import (
    DEFAULT_INFLIGHT_TTL_SECONDS,
    _atomic_replace,
)
from repro.trace.files import trace_name_for_path
from repro.trace.planecache import CachedPlane, TracePlaneCache, coerce_plane_cache

#: Legacy single-daemon heartbeat file name (pre-fleet); per-daemon
#: heartbeats now live under ``daemons/<id>.json`` and this name remains
#: only as the stats fallback for directories written by older builds.
HEARTBEAT_NAME = "daemon.json"

#: Daemon ids become file names (heartbeat + socket), so keep them tame.
_DAEMON_ID_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


def default_daemon_id() -> str:
    """The id a daemon takes when none is given: ``<host>-<pid>``.

    Stable across a same-process restart (the kill/recover tests rely on
    the restarted daemon recognising its own stranded claims) and unique
    across fleet processes on one host.
    """
    host = re.sub(r"[^A-Za-z0-9._-]", "-", _local_host()) or "local"
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
        Idle sleep between scheduler ticks, in seconds.
    on_cell:
        Optional observability hook called as ``on_cell(record, index,
        job, cached)`` after every persisted cell — the test suite uses it
        to deterministically kill the daemon mid-job.
    daemon_id:
        This daemon's fleet identity (heartbeat + socket file names, claim
        ownership).  Defaults to ``<host>-<pid>``; two concurrent daemons
        in one *process* must be given distinct ids explicitly.
    lease_seconds:
        Claim lease length.  The daemon renews by heartbeating; a peer
        whose heartbeat goes stale for this long (or whose pid dies on
        this host) forfeits its running jobs to recovery.
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
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
        socket: bool = True,
        job_retain_seconds: float = DEFAULT_JOB_RETAIN_SECONDS,
        inflight_ttl_seconds: float = DEFAULT_INFLIGHT_TTL_SECONDS,
        trace_cache: Union[None, bool, str, os.PathLike, TracePlaneCache] = None,
    ) -> None:
        self.queue: JobQueue = open_service(root)
        if store is None:
            store = Path(self.queue.root) / "store"
        self.store: ResultStore = (
            store if isinstance(store, ResultStore) else open_store(store)
        )
        # The trace artifact cache: shared by every daemon draining this
        # service directory (and by submitting clients, for the
        # fingerprint sidecar), so an N-daemon fleet parses each corpus
        # exactly once.  None -> <root>/tracecache; False disables.  An
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
        self.lease_seconds = max(float(lease_seconds), 0.1)
        self.socket_enabled = bool(socket)
        self.socket_server: Optional[ServiceSocketServer] = None
        self.socket_error: Optional[str] = None
        self.job_retain_seconds = float(job_retain_seconds)
        self.inflight_ttl_seconds = float(inflight_ttl_seconds)
        self.workers = max(int(workers), 1)
        self.sweep_workers = max(int(sweep_workers), 1)
        self.poll_interval = max(float(poll_interval), 0.0)
        self.on_cell = on_cell
        self.event_retain_seconds = float(event_retain_seconds)
        self.jobs_done = 0
        self.jobs_failed = 0
        self.jobs_cancelled = 0
        self.cells_executed = 0
        self.cells_cached = 0
        self.heartbeat_errors = 0
        self._last_heartbeat_error: Optional[str] = None
        # Sticky degradation notes, keyed by condition ("socket", ...).
        # Unlike the transient `note` argument to _write_heartbeat, these
        # survive every renewal until the condition clears — the original
        # bug was a socket-bind failure silently erased by the next
        # heartbeat, leaving the fleet view claiming a healthy socket.
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
        # One span log per daemon under <root>/telemetry/ — every claim,
        # cell and terminal transition lands here with the submission's
        # trace id, so one id can be followed across the whole fleet.
        self.span_log = SpanLog(
            Path(self.queue.root) / TELEMETRY_DIR,
            name=f"spans-{self.daemon_id}",
            source=self.daemon_id,
        )
        self._stopping = False
        self._started_at = time.time()
        self._lock = Lock()
        # Separate lock for heartbeat pacing state: _write_heartbeat calls
        # heartbeat(), which takes self._lock — a shared (non-reentrant)
        # lock would deadlock the throttled renewal path.
        self._heartbeat_state_lock = Lock()
        self._last_heartbeat_at = 0.0
        self._last_recover_at = time.monotonic()
        self._inflight_jobs: Dict[str, List[StoreKey]] = {}  # job id -> cell keys

    # -- lifecycle ---------------------------------------------------------------

    def stop(self) -> None:
        """Ask the scheduler loop to exit after the current tick."""
        self._stopping = True

    def run(self, drain: bool = False, max_jobs: Optional[int] = None) -> int:
        """The scheduler loop; returns the number of jobs brought to an end.

        ``drain=True`` exits once no job is queued and nothing is in
        flight (batch mode — the CI smoke and the tests use it); jobs that
        are queued but deferred on a peer's in-flight work keep the daemon
        alive until the overlap clears.  ``max_jobs`` bounds how many jobs
        are finished before returning.  Startup always begins with a
        lease-aware :meth:`JobQueue.recover` — jobs stranded by dead
        daemons (including this daemon's own previous life) are re-queued
        and their dead owners' in-flight marks dropped, while a live
        peer's leased jobs are untouched — followed by submit-event
        pruning and the ``queue gc`` retention sweep.
        """
        self._stopping = False
        recovered = self.queue.recover(
            daemon_id=self.daemon_id, lease_seconds=self.lease_seconds
        )
        self._release_reclaimed(recovered)
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

    def _finished_total(self) -> int:
        return self.jobs_done + self.jobs_failed + self.jobs_cancelled

    def _start_socket(self) -> None:
        if not self.socket_enabled:
            return
        server = ServiceSocketServer(self.queue, self.daemon_id, stats_source=self)
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

    def _release_reclaimed(self, recovered: List[JobRecord]) -> None:
        """Drop dead owners' in-flight marks for every reclaimed job.

        Without this, jobs overlapping a SIGKILLed daemon's cells would
        stay deferred until the marker TTL ran out even though recovery
        already proved the owner dead.
        """
        for record in recovered:
            digests = record.request.get("cell_digests")
            if isinstance(digests, list):
                self.store.clear_in_flight_digests([str(d) for d in digests])

    def _periodic_recover(self) -> None:
        """Lease-expiry sweep from the idle path, once per lease interval.

        ``reclaim_own=False``: a daemon's own id on a running record means
        *this* life's worker threads are executing it — only dead peers
        (and this daemon's dead previous lives, whose pid probe fails on
        the claim's behalf) are eligible.
        """
        now = time.monotonic()
        if now - self._last_recover_at < self.lease_seconds:
            return
        self._last_recover_at = now
        recovered = self.queue.recover(
            daemon_id=self.daemon_id,
            lease_seconds=self.lease_seconds,
            reclaim_own=False,
        )
        self._release_reclaimed(recovered)

    def _finished_enough(self, finished_before: int, max_jobs: Optional[int]) -> bool:
        if max_jobs is None:
            return False
        return self._finished_total() - finished_before >= max_jobs

    def _run_inline(
        self, drain: bool, max_jobs: Optional[int], finished_before: int
    ) -> None:
        while not self._stopping and not self._finished_enough(finished_before, max_jobs):
            record = self.queue.claim(
                accept=self._accept,
                daemon_id=self.daemon_id,
                lease_seconds=self.lease_seconds,
            )
            if record is None:
                self._write_heartbeat()
                if drain and not self.queue.records(STATE_QUEUED):
                    break
                self._periodic_recover()
                time.sleep(self.poll_interval)
                continue
            self._mark_job_inflight(record)
            self._execute(record)
            self._write_heartbeat()

    def _run_pooled(
        self, drain: bool, max_jobs: Optional[int], finished_before: int
    ) -> None:
        pending: List[Future] = []
        with ThreadPoolExecutor(max_workers=self.workers) as pool:
            while True:
                pending = [future for future in pending if not future.done()]
                if self._stopping or self._finished_enough(finished_before, max_jobs):
                    break
                claimed = None
                if len(pending) < self.workers:
                    claimed = self.queue.claim(
                        accept=self._accept,
                        daemon_id=self.daemon_id,
                        lease_seconds=self.lease_seconds,
                    )
                if claimed is not None:
                    # Mark in flight from the scheduler thread, before the
                    # worker starts, so the next claim's overlap check can
                    # never race the marking.
                    self._mark_job_inflight(claimed)
                    pending.append(pool.submit(self._execute, claimed))
                    continue
                self._write_heartbeat()
                if drain and not pending and not self.queue.records(STATE_QUEUED):
                    break
                self._periodic_recover()
                time.sleep(self.poll_interval)
            for future in pending:
                future.result()

    # -- scheduling --------------------------------------------------------------

    def _accept(self, record: JobRecord) -> bool:
        """Defer jobs whose cells overlap work already in flight.

        Once the overlapping job finishes, its cells are in the store and
        the deferred job's next claim attempt loads them for free — that is
        the cross-job half of request coalescing.  The in-flight set is the
        union of this daemon's marks and the on-disk markers every fleet
        daemon writes, so the check holds across daemons: a ``workers=1``
        daemon defers to a *peer's* in-flight cells even though nothing of
        its own is ever concurrently in flight.
        """
        digests = self._request_digests(record)
        if digests is None:
            return True  # malformed requests fail properly inside _execute
        inflight = self.store.in_flight_digests()
        return not (digests & inflight)

    @staticmethod
    def _request_digests(record: JobRecord) -> Optional[set]:
        """The record's cell store-key digests, without re-deriving them.

        The submit path persists the digest list in the job record, so the
        per-tick overlap check is a set intersection; records written
        without one (or malformed ones) fall back to recomputing from the
        request grid.
        """
        stored = record.request.get("cell_digests")
        if isinstance(stored, list) and stored:
            return {str(digest) for digest in stored}
        try:
            request = SweepRequest.from_wire(record.request)
            fingerprint = str(record.request.get("trace_fingerprint", ""))
            return set(request.cell_digests(fingerprint))
        except (ReproError, KeyError, ValueError, TypeError):
            return None

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
        # survives daemon crashes and reclaims — whichever daemon executes
        # (or re-executes) the job continues the same trace.
        trace_id = record.request.get("trace_id") or None
        self.span_log.emit(
            "job_claimed",
            trace_id=trace_id,
            job_id=record.id,
            attempt=record.attempts,
        )
        try:
            request = SweepRequest.from_wire(record.request)
            jobs = request.build_jobs()
            expected = str(record.request.get("trace_fingerprint", ""))
            load_start = time.perf_counter()
            sweep_input = self._resolve_sweep_input(request, expected)
            load_seconds = time.perf_counter() - load_start
            record.cells_total = len(jobs)
            record.cells_done = 0
            record.cells_cached = 0
            self.queue.update_running(record)

            def progress(index: int, job: SweepJob, results, cached: bool) -> None:
                record.cells_done += 1
                if cached:
                    record.cells_cached += 1
                self.queue.update_running(record)
                self.span_log.emit(
                    "cell",
                    trace_id=trace_id,
                    job_id=record.id,
                    index=index,
                    cached=cached,
                )
                if self.on_cell is not None:
                    self.on_cell(record, index, job, cached)
                # A long sweep must keep renewing the claim lease even
                # though the scheduler thread is busy (inline mode) — the
                # heartbeat is throttled, so this is nearly free per cell.
                self._maybe_heartbeat()
                # Cancel requests are honored at cell granularity: the cell
                # just persisted stays in the store, the rest of the sweep
                # is abandoned, and run_sweep tears down its pool before
                # the exception reaches the handler below.
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
            payload = outcome.merged().to_json()
            record.execute_seconds = time.perf_counter() - started
            phases = {
                name: round(value, 6)
                for name, value in dict(outcome.phases, load=load_seconds).items()
            }
            record.extra.update(
                {
                    "cached_jobs": outcome.cached_jobs,
                    "executed_jobs": outcome.executed_jobs,
                    "trace": outcome.trace_name,
                    "phases": phases,
                }
            )
            self.queue.complete(record, payload)
            with self._lock:
                self.jobs_done += 1
                self.cells_executed += outcome.executed_jobs
                self.cells_cached += outcome.cached_jobs
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
            self._clear_inflight(record.id)
            server = self.socket_server
            if server is not None:
                server.notify_job_finished()

    def _mark_job_inflight(self, record: JobRecord) -> None:
        """Register a claimed job's cell keys as in flight (scheduler thread).

        Cells already persisted are not marked — they will be store hits,
        not duplicate work — so the overlap check only defers jobs on
        genuinely concurrent simulation.  A malformed request marks nothing
        and is left for :meth:`_execute` to fail properly.
        """
        try:
            request = SweepRequest.from_wire(record.request)
            fingerprint = str(record.request.get("trace_fingerprint", ""))
            keys = [job.store_key(fingerprint) for job in request.build_jobs()]
        except (ReproError, KeyError, ValueError, TypeError):
            return
        with self._lock:
            self._inflight_jobs[record.id] = keys
        for key in keys:
            if not self.store.contains(key):
                self.store.mark_in_flight(
                    key,
                    owner=self.daemon_id,
                    ttl_seconds=self.inflight_ttl_seconds,
                )

    def _clear_inflight(self, job_id: str) -> None:
        with self._lock:
            keys = self._inflight_jobs.pop(job_id, [])
        for key in keys:
            self.store.clear_in_flight(key)

    # -- observability -----------------------------------------------------------

    def heartbeat(self) -> Dict[str, Any]:
        """The daemon's current counters (what ``stats`` reports).

        This payload doubles as the lease-renewal attestation: ``pid`` +
        ``host`` feed the liveness pid probe, ``updated_at`` is what
        :meth:`JobQueue.lease_deadline` extends leases from.
        """
        with self._lock:
            inflight = sorted(self._inflight_jobs)
        server = self.socket_server
        return {
            "schema": 1,
            "daemon_id": self.daemon_id,
            "pid": os.getpid(),
            "host": _local_host(),
            "started_at": self._started_at,
            "updated_at": time.time(),
            "lease_seconds": self.lease_seconds,
            "workers": self.workers,
            "sweep_workers": self.sweep_workers,
            "jobs_done": self.jobs_done,
            "jobs_failed": self.jobs_failed,
            "jobs_cancelled": self.jobs_cancelled,
            "cells_executed": self.cells_executed,
            "cells_cached": self.cells_cached,
            "heartbeat_errors": self.heartbeat_errors,
            "socket": str(server.path) if server is not None and server.running else None,
            "inflight_jobs": [job_id[:12] for job_id in inflight],
            "notes": [self._notes[key] for key in sorted(self._notes)],
            "store": self.store.stats(),
            "trace_cache": (
                self.trace_cache.stats() if self.trace_cache is not None else None
            ),
            # The whole process registry rides every heartbeat, so fleet
            # surfaces (`queue stats`, `queue top`, `repro-dew metrics`)
            # aggregate without talking to each daemon's socket.
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
            path = self.queue.heartbeat_path(self.daemon_id)
            path.parent.mkdir(parents=True, exist_ok=True)
            _atomic_replace(
                path,
                lambda handle: json.dump(payload, handle, sort_keys=True),
                mode="w",
                prefix=".tmp-heartbeat-",
            )
        except (OSError, StoreError) as exc:
            with self._heartbeat_state_lock:
                self.heartbeat_errors += 1
                self._last_heartbeat_error = str(exc)
            self._metric_heartbeat_errors.inc()
        else:
            with self._heartbeat_state_lock:
                self._last_heartbeat_at = time.monotonic()

    def _maybe_heartbeat(self, min_interval: Optional[float] = None) -> None:
        """Heartbeat only if the last one is older than ``min_interval``.

        The default interval is a quarter lease: frequent enough that a
        healthy daemon's lease never approaches expiry, cheap enough to
        call from per-cell progress hooks.
        """
        interval = self.lease_seconds / 4.0 if min_interval is None else min_interval
        with self._heartbeat_state_lock:
            due = time.monotonic() - self._last_heartbeat_at >= interval
        if due:
            self._write_heartbeat()
