"""A durable, crash-safe on-disk job queue for the simulation service.

Every job is one JSON file whose *directory* encodes its state::

    <root>/service.json           {"schema": 1}
    <root>/jobs/queued/<id>.json
    <root>/jobs/running/<id>.json
    <root>/jobs/done/<id>.json
    <root>/jobs/failed/<id>.json
    <root>/jobs/cancelled/<id>.json
    <root>/jobs/cancel-requests/<id>.cancel   cancel marker for a running job
    <root>/results/<id>.json      result payload of completed jobs
    <root>/events/<nonce>.submit  one empty file per submit call
    <root>/events/archived.json   count of pruned submit events
    <root>/daemon.lock            flock-held by the one daemon serving the directory
    <root>/daemon.json            that daemon's heartbeat (counters, notes, metrics)
    <root>/daemon.sock            its Unix socket (low-latency transport)

Durability rules mirror the result store's:

* **One daemon per directory.**  A daemon holds an exclusive ``flock`` on
  ``daemon.lock`` while it runs (see :class:`~repro.service.daemon.ServiceDaemon`),
  and the kernel drops that lock when its holder dies.  Every job under
  ``running/`` at a daemon's startup was therefore stranded by a dead
  daemon, and :meth:`JobQueue.recover` re-queues them all.
* **Contested transitions move the file first.**  Claiming, cancelling a
  waiting job and resubmitting a failed or cancelled one each begin with
  one ``os.replace`` out of the source directory.  It fails for every
  actor but one, so a daemon's claim and a client's cancel (or two
  clients) can never leave one job in two directories; the loser re-reads
  the job and acts on the state it finds.  A record's state is the
  directory it is read from, so a crash between the rename and the
  rewrite that follows cannot show a stale state.
* **Record rewrites are atomic.**  Progress updates go through the shared
  temp-file-plus-rename writer, so a kill mid-update leaves the previous
  consistent record, never a truncated one.
* **A crash is recoverable by construction.**  A daemon killed mid-job
  leaves the record under ``running/``; the next daemon's recovery moves it
  back to ``queued``, and because execution is store-backed the re-run pays
  only for cells that were not yet persisted.
* **Results are written before the state flips to done**, so observing
  ``done`` guarantees the result payload exists.

Submission is *idempotent*: the job id is the canonical content identity of
the request (see :meth:`repro.service.api.SweepRequest.canonical_job_id` —
derived from the same trace fingerprint and store-key digests the result
store addresses artifacts by), so duplicate submissions — concurrent ones
included — collapse onto one queue entry.  Each submit call additionally
drops a uniquely-named event file, which is how the dedup ratio survives
restarts without any shared mutable counter.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.errors import ServiceError
from repro.obs.metrics import get_registry
from repro.service import DEFAULT_JOB_RETAIN_SECONDS, JOB_STATES
from repro.store.resultstore import _atomic_replace

#: Version of the service directory layout and job record schema.
SERVICE_SCHEMA_VERSION = 1

#: Job lifecycle states (:data:`repro.service.JOB_STATES`); each is a
#: sub-directory of ``jobs/``.
STATE_QUEUED, STATE_RUNNING, STATE_DONE, STATE_FAILED, STATE_CANCELLED = JOB_STATES

#: States a job can never leave (their results/errors are final).
TERMINAL_STATES: Tuple[str, ...] = (STATE_DONE, STATE_CANCELLED)

_SERVICE_MANIFEST = "service.json"
_JOBS_DIR = "jobs"
_RESULTS_DIR = "results"
_EVENTS_DIR = "events"
_RECORD_SUFFIX = ".json"

#: Summary file the event pruner folds removed submit events into, so the
#: all-time submission count (and thus the dedup ratio) survives pruning.
_EVENTS_ARCHIVE = "archived.json"

#: Directory of cancel-request markers for *running* jobs: one empty
#: ``<id>.cancel`` file per requested cancellation, dropped by clients and
#: honored by the daemon between cells.
_CANCEL_DIR = "cancel-requests"
_CANCEL_SUFFIX = ".cancel"

#: Default retain window for submit-event files.  Events older than this
#: carry no information beyond their count (which the archive preserves),
#: so pruning them caps the directory at the last day's submission rate.
DEFAULT_EVENT_RETAIN_SECONDS = 86_400.0

#: Files of the one daemon serving a directory: the ``flock`` it holds,
#: its heartbeat and its Unix socket.
_LOCK_NAME = "daemon.lock"
_HEARTBEAT_NAME = "daemon.json"
_SOCKET_NAME = "daemon.sock"


class _MovedAway(Exception):
    """The job left the source directory before this actor could move it."""


@dataclass
class JobRecord:
    """One sweep job's durable bookkeeping (the JSON file's contents)."""

    id: str
    request: Dict[str, Any]
    state: str = STATE_QUEUED
    priority: int = 0
    sequence: int = 0
    attempts: int = 0
    cells_total: int = 0
    cells_done: int = 0
    cells_cached: int = 0
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    execute_seconds: float = 0.0
    error: Optional[str] = None
    daemon_id: Optional[str] = None
    extra: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able view (the exact on-disk representation)."""
        return {
            "schema": SERVICE_SCHEMA_VERSION,
            "id": self.id,
            "request": self.request,
            "state": self.state,
            "priority": self.priority,
            "sequence": self.sequence,
            "attempts": self.attempts,
            "cells_total": self.cells_total,
            "cells_done": self.cells_done,
            "cells_cached": self.cells_cached,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "execute_seconds": self.execute_seconds,
            "error": self.error,
            "daemon_id": self.daemon_id,
            "extra": self.extra,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "JobRecord":
        """Inverse of :meth:`to_dict` (unknown keys are ignored)."""
        if payload.get("schema") != SERVICE_SCHEMA_VERSION:
            raise ServiceError(
                f"job record uses schema {payload.get('schema')!r}; "
                f"this build reads version {SERVICE_SCHEMA_VERSION}"
            )
        return cls(
            id=str(payload["id"]),
            request=dict(payload.get("request", {})),
            state=str(payload.get("state", STATE_QUEUED)),
            priority=int(payload.get("priority", 0)),
            sequence=int(payload.get("sequence", 0)),
            attempts=int(payload.get("attempts", 0)),
            cells_total=int(payload.get("cells_total", 0)),
            cells_done=int(payload.get("cells_done", 0)),
            cells_cached=int(payload.get("cells_cached", 0)),
            submitted_at=float(payload.get("submitted_at", 0.0)),
            started_at=payload.get("started_at"),
            finished_at=payload.get("finished_at"),
            execute_seconds=float(payload.get("execute_seconds", 0.0)),
            error=payload.get("error"),
            daemon_id=payload.get("daemon_id"),
            extra=dict(payload.get("extra", {})),
        )


def _submitted_cells(request: Dict[str, Any]) -> int:
    """The cell count a submit recorded in the request (0 when absent)."""
    try:
        return max(int(request.get("cells", 0)), 0)
    except (TypeError, ValueError):
        return 0


def _claim_order_key(record: JobRecord) -> Tuple[int, int, str]:
    """Higher priority first, then submission order, then id (deterministic)."""
    return (-record.priority, record.sequence, record.id)


class JobQueue:
    """The durable queue rooted at one service directory.

    Construct via :func:`open_service`.  All mutating operations are atomic
    renames or atomic rewrites; see the module docstring for the crash
    semantics each one guarantees.
    """

    def __init__(self, root: Union[str, os.PathLike]) -> None:
        self.root = Path(root)
        registry = get_registry()
        self._metric_submitted = registry.counter(
            "queue_submitted_total", help="Jobs enqueued (fresh or retried)."
        )
        self._metric_deduped = registry.counter(
            "queue_deduped_total", help="Submissions coalesced onto a live job."
        )
        self._metric_claimed = registry.counter(
            "queue_claimed_total", help="Successful job claims."
        )
        self._metric_completed = registry.counter(
            "queue_completed_total", help="Jobs finished as done."
        )
        self._metric_failed = registry.counter(
            "queue_failed_total", help="Jobs finished as failed."
        )
        self._metric_cancelled = registry.counter(
            "queue_cancelled_total", help="Jobs finished as cancelled."
        )
        self._metric_recovered = registry.counter(
            "queue_recovered_total", help="Stranded running jobs re-queued."
        )
        self._metric_claim_latency = registry.histogram(
            "queue_claim_latency_seconds",
            help="Seconds between job submission and a winning claim.",
        )

    # -- paths -------------------------------------------------------------------

    def _state_dir(self, state: str) -> Path:
        if state not in JOB_STATES:
            raise ServiceError(f"unknown job state {state!r}")
        return self.root / _JOBS_DIR / state

    def _record_path(self, state: str, job_id: str) -> Path:
        return self._state_dir(state) / (job_id + _RECORD_SUFFIX)

    def result_path(self, job_id: str) -> Path:
        """Where a completed job's result payload lives."""
        return self.root / _RESULTS_DIR / (job_id + _RECORD_SUFFIX)

    # -- record I/O --------------------------------------------------------------

    def _write_record(self, state: str, record: JobRecord) -> None:
        record.state = state
        path = self._record_path(state, record.id)
        _atomic_replace(
            path,
            lambda handle: json.dump(record.to_dict(), handle, sort_keys=True),
            mode="w",
            prefix=".tmp-job-",
        )

    def _read_record(self, path: Path) -> Optional[JobRecord]:
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        try:
            record = JobRecord.from_dict(payload)
        except (KeyError, TypeError, ValueError):
            return None
        # The directory, not the file's contents, is the state: a crash
        # between a transition's rename and its rewrite leaves the old one.
        record.state = path.parent.name
        return record

    def _move(self, record: JobRecord, source: str, target: str) -> bool:
        """Move a job that others may move too; ``False`` if it was gone.

        The new record is written and synced to a temp file first, then
        the job's file is renamed out of ``source``: exactly one of several
        actors finds it there, and the losers must re-read the job.  The
        winner's temp file replaces the moved one right after, so the
        rename that decides and the one that publishes the new fields run
        back to back.
        """
        source_path = self._record_path(source, record.id)
        target_path = self._record_path(target, record.id)
        record.state = target

        def write_then_move(handle) -> None:
            json.dump(record.to_dict(), handle, sort_keys=True)
            handle.flush()
            os.fsync(handle.fileno())
            try:
                os.replace(source_path, target_path)
            except FileNotFoundError:
                raise _MovedAway from None

        try:
            _atomic_replace(target_path, write_then_move, mode="w", prefix=".tmp-job-")
        except _MovedAway:
            return False
        return True

    def _leave_running(self, record: JobRecord, target: str) -> None:
        """Move a running job, which only the daemon moves, to ``target``.

        The new record is written before the running one is unlinked, so
        the job is never missing, and a client that acts on the new record
        at once (resubmitting a failed job) is not undone by the unlink.
        """
        self._write_record(target, record)
        try:
            self._record_path(STATE_RUNNING, record.id).unlink()
        except FileNotFoundError:
            pass

    # -- submission --------------------------------------------------------------

    def submit(
        self,
        job_id: str,
        request: Dict[str, Any],
        priority: int = 0,
    ) -> Tuple[JobRecord, bool]:
        """Enqueue (or coalesce onto) the job identified by ``job_id``.

        Returns ``(record, deduped)``: ``deduped`` is True when an
        equivalent job already existed in a live state (queued, running or
        done) and no new work was enqueued.  A job found ``failed`` or
        ``cancelled`` is re-queued — resubmission is the retry mechanism.
        Every call drops one submission event for dedup accounting.
        """
        self._record_event()
        while True:
            existing = self._locate(job_id)
            if existing is None:
                break
            state, record = existing
            if state in (STATE_QUEUED, STATE_RUNNING, STATE_DONE):
                self._metric_deduped.inc()
                return record, True
            # failed/cancelled -> retry: move back onto the queue.
            record.error = None
            record.started_at = None
            record.finished_at = None
            record.cells_done = 0
            record.cells_cached = 0
            record.priority = max(record.priority, int(priority))
            if not self._move(record, state, STATE_QUEUED):
                continue  # a cancel or another resubmission moved it first
            # A resubmission is an explicit retry: a cancel marker left by
            # an earlier life of this job must not insta-cancel the new run.
            self.clear_cancel_request(job_id)
            self._metric_submitted.inc()
            return record, False
        record = JobRecord(
            id=job_id,
            request=dict(request),
            priority=int(priority),
            sequence=time.time_ns(),
            submitted_at=time.time(),
        )
        self._write_record(STATE_QUEUED, record)
        self._metric_submitted.inc()
        return record, False

    def _record_event(self) -> None:
        events = self.root / _EVENTS_DIR
        # pid + monotonic nonce make the name unique across processes.
        nonce = f"{os.getpid()}-{time.time_ns()}"
        path = events / (nonce + ".submit")
        try:
            with open(path, "x", encoding="ascii") as handle:
                handle.write("")
        except FileExistsError:  # pragma: no cover - same-ns double submit
            pass
        except OSError as exc:
            raise ServiceError(f"could not record submission event: {exc}") from exc

    # -- lookup ------------------------------------------------------------------

    def _locate(self, job_id: str) -> Optional[Tuple[str, JobRecord]]:
        for state in JOB_STATES:
            path = self._record_path(state, job_id)
            if path.is_file():
                record = self._read_record(path)
                if record is not None:
                    return state, record
        return None

    def find(self, job_id_or_prefix: str) -> JobRecord:
        """The record whose id is (or starts with) the given string.

        Prefixes are accepted for the same copy-paste ergonomics as
        ``store ls`` fingerprints; an unknown or ambiguous prefix raises
        :class:`~repro.errors.ServiceError`.
        """
        token = str(job_id_or_prefix).strip()
        if not token:
            raise ServiceError("empty job id")
        exact = self._locate(token)
        if exact is not None:
            return exact[1]
        matches = [
            record for record in self.records() if record.id.startswith(token)
        ]
        if not matches:
            raise ServiceError(f"no job matches {token!r}")
        if len(matches) > 1:
            listing = ", ".join(sorted(record.id[:12] for record in matches))
            raise ServiceError(f"job id prefix {token!r} is ambiguous: {listing}")
        return matches[0]

    def records(self, state: Optional[str] = None) -> List[JobRecord]:
        """All job records (optionally of one state), in claim order."""
        states = (state,) if state is not None else JOB_STATES
        records: List[JobRecord] = []
        for name in states:
            directory = self._state_dir(name)
            if not directory.is_dir():
                continue
            for path in sorted(directory.glob("*" + _RECORD_SUFFIX)):
                record = self._read_record(path)
                if record is not None:
                    records.append(record)
        records.sort(key=_claim_order_key)
        return records

    def counts(self) -> Dict[str, int]:
        """Number of jobs per state."""
        result = {}
        for state in JOB_STATES:
            directory = self._state_dir(state)
            result[state] = (
                sum(1 for _ in directory.glob("*" + _RECORD_SUFFIX))
                if directory.is_dir()
                else 0
            )
        return result

    def submissions(self) -> int:
        """Total submit calls observed (survives restarts; drives dedup ratio).

        Live event files plus the count folded into the archive by
        :meth:`prune_events`, so the all-time total is unaffected by pruning.
        """
        events = self.root / _EVENTS_DIR
        if not events.is_dir():
            return 0
        return sum(1 for _ in events.glob("*.submit")) + self._archived_events()

    def _archived_events(self) -> int:
        path = self.root / _EVENTS_DIR / _EVENTS_ARCHIVE
        try:
            payload = json.loads(path.read_text(encoding="ascii"))
            return max(int(payload.get("count", 0)), 0)
        except (OSError, ValueError, TypeError):
            return 0

    def prune_events(
        self,
        retain_seconds: float = DEFAULT_EVENT_RETAIN_SECONDS,
        now: Optional[float] = None,
    ) -> int:
        """Delete submit-event files older than ``retain_seconds``.

        Every submit call drops one empty event file forever, so a
        long-lived service accumulates unbounded directory entries; this
        folds the stale ones into a single archived count (preserving
        :meth:`submissions` exactly) and removes the files.  Returns the
        number pruned.  Wired into daemon startup recovery and
        ``repro-dew queue stats --prune-events``; concurrent pruners are
        safe (a file the other pruner already removed is simply skipped,
        and the archive rewrite is atomic).  A crash between deleting and
        archiving can under-count stale submissions — an accounting blip
        in a stats counter, never in job state.
        """
        events = self.root / _EVENTS_DIR
        if not events.is_dir():
            return 0
        cutoff = (time.time() if now is None else float(now)) - max(
            float(retain_seconds), 0.0
        )
        pruned = 0
        for path in events.glob("*.submit"):
            try:
                if path.stat().st_mtime >= cutoff:
                    continue
                path.unlink()
            except OSError:
                continue  # raced with a concurrent pruner (or unreadable)
            pruned += 1
        if pruned:
            total = self._archived_events() + pruned
            _atomic_replace(
                events / _EVENTS_ARCHIVE,
                lambda handle: json.dump(
                    {"schema": 1, "count": total}, handle, sort_keys=True
                ),
                mode="w",
                prefix=".tmp-events-",
            )
        return pruned

    # -- transitions -------------------------------------------------------------

    def claim(self, daemon_id: Optional[str] = None) -> Optional[JobRecord]:
        """Atomically claim the best queued job, or ``None`` when idle.

        Queued jobs are considered in (priority desc, submission order)
        sequence.  The claim is a :meth:`_move` out of ``queued/``: if a
        concurrent cancel (or another claimant) moves the job first, the
        next candidate is tried, so a job is only ever executed once.
        ``daemon_id`` labels the running record with its claimant, and its
        ``cells_total`` is the request's submitted cell count.
        """
        for record in self.records(STATE_QUEUED):
            record.attempts += 1
            record.started_at = time.time()
            record.error = None
            record.daemon_id = daemon_id
            record.cells_total = _submitted_cells(record.request)
            if not self._move(record, STATE_QUEUED, STATE_RUNNING):
                continue  # lost the race; try the next candidate
            self._metric_claimed.inc()
            if record.submitted_at:
                self._metric_claim_latency.observe(
                    max(record.started_at - record.submitted_at, 0.0)
                )
            return record
        return None

    def update_running(self, record: JobRecord) -> None:
        """Atomically rewrite a running job's record (progress updates)."""
        if record.state != STATE_RUNNING:
            raise ServiceError(
                f"can only update running jobs, {record.id[:12]} is {record.state!r}"
            )
        self._write_record(STATE_RUNNING, record)

    def complete(self, record: JobRecord, result_text: str) -> None:
        """Persist the result payload, then flip the job to ``done``.

        The payload write happens first (atomically), so a record observed
        in ``done`` always has a readable result.
        """
        payload_path = self.result_path(record.id)
        _atomic_replace(
            payload_path,
            lambda handle: handle.write(result_text),
            mode="w",
            prefix=".tmp-result-",
        )
        record.finished_at = time.time()
        self._leave_running(record, STATE_DONE)
        self.clear_cancel_request(record.id)
        self._metric_completed.inc()

    def fail(self, record: JobRecord, error: str) -> None:
        """Flip a running job to ``failed`` with the error message."""
        record.error = str(error)
        record.finished_at = time.time()
        self._leave_running(record, STATE_FAILED)
        self.clear_cancel_request(record.id)
        self._metric_failed.inc()

    def cancel(self, job_id_or_prefix: str) -> JobRecord:
        """Cancel a job: atomic rename for waiting states, a request for running.

        Queued and failed jobs flip straight to ``cancelled`` (an atomic
        rename; failed jobs are cancellable to stop a resubmission from
        retrying them).  A *running* job is owned by the daemon, so
        cancelling it drops a durable cancel-request marker instead — the
        daemon checks it between cells (see
        :meth:`~repro.service.daemon.ServiceDaemon` and
        :class:`~repro.errors.SweepAborted`) and finishes the job as
        ``cancelled``, keeping every cell already persisted.  The returned
        record still reads ``running`` in that case; callers distinguish
        the two outcomes by state.  Done and cancelled jobs are final.
        """
        record = self.find(job_id_or_prefix)
        while record.state in (STATE_QUEUED, STATE_FAILED):
            source = record.state
            record.finished_at = time.time()
            if self._move(record, source, STATE_CANCELLED):
                self._metric_cancelled.inc()
                return record
            # A claim or a resubmission moved the job first: act on the
            # state it is in now (a claimed job gets a cancel request).
            record = self.find(record.id)
        if record.state == STATE_RUNNING:
            self.request_cancel(record.id)
            return record
        raise ServiceError(f"job {record.id[:12]} is already {record.state}")

    # -- running-job cancellation ------------------------------------------------

    def _cancel_request_path(self, job_id: str) -> Path:
        return self.root / _JOBS_DIR / _CANCEL_DIR / (job_id + _CANCEL_SUFFIX)

    def request_cancel(self, job_id: str) -> None:
        """Durably ask the daemon to stop the given job between cells."""
        path = self._cancel_request_path(job_id)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(path, "w", encoding="ascii") as handle:
                handle.write("")
        except OSError as exc:
            raise ServiceError(
                f"could not record cancel request for {job_id[:12]}: {exc}"
            ) from exc

    def cancel_requested(self, job_id: str) -> bool:
        """Whether a cancel-request marker exists for the job."""
        return self._cancel_request_path(job_id).is_file()

    def clear_cancel_request(self, job_id: str) -> None:
        """Remove the job's cancel-request marker, if any."""
        try:
            self._cancel_request_path(job_id).unlink()
        except OSError:
            pass

    def cancel_running(self, record: JobRecord) -> None:
        """Finish a running job as ``cancelled`` (the daemon's side of
        :meth:`request_cancel`); clears the marker so a later resubmission
        of the same request starts clean."""
        record.finished_at = time.time()
        self._leave_running(record, STATE_CANCELLED)
        self.clear_cancel_request(record.id)
        self._metric_cancelled.inc()

    # -- the daemon's files --------------------------------------------------------

    def lock_path(self) -> Path:
        """The file the serving daemon holds an exclusive ``flock`` on."""
        return self.root / _LOCK_NAME

    def heartbeat_path(self) -> Path:
        """Where the daemon publishes its heartbeat."""
        return self.root / _HEARTBEAT_NAME

    def socket_path(self) -> Path:
        """Where the daemon binds its Unix-domain socket."""
        return self.root / _SOCKET_NAME

    def heartbeat(self) -> Optional[Dict[str, Any]]:
        """The daemon's last heartbeat payload, or ``None`` if there is none.

        A stopped or killed daemon's last heartbeat stays readable (a clean
        stop notes ``stopped``); an unreadable file reads as ``None``.
        """
        try:
            payload = json.loads(self.heartbeat_path().read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        return payload if isinstance(payload, dict) else None

    def recover(self) -> List[JobRecord]:
        """Re-queue every running job; the daemon's first step at startup.

        Only the daemon holding the directory's lock calls this, before it
        claims anything, so each running record was stranded by a daemon
        that died mid-job.  Progress counters are reset: the store, not the
        record, is the source of truth for completed cells, and the re-run
        loads persisted cells instead of re-simulating them.
        """
        recovered = self.records(STATE_RUNNING)
        for record in recovered:
            record.cells_done = 0
            record.cells_cached = 0
            record.daemon_id = None
            self._leave_running(record, STATE_QUEUED)
        if recovered:
            self._metric_recovered.inc(len(recovered))
        return recovered

    # -- retention ---------------------------------------------------------------

    def gc(
        self,
        retain_seconds: float = DEFAULT_JOB_RETAIN_SECONDS,
        dry_run: bool = False,
        now: Optional[float] = None,
    ) -> Dict[str, int]:
        """Evict finished job records (and their payloads) past retention.

        Jobs in a terminal-or-failed state whose ``finished_at`` (falling
        back to the record file's mtime) is older than ``retain_seconds``
        are deleted, together with their result payloads and any stale
        cancel markers.  Queued and running jobs are never touched.  Returns
        counts per state plus ``results`` (payload files), ``bytes``
        (total reclaimed) and ``kept`` (finished jobs inside the window);
        with ``dry_run=True`` nothing is deleted and the same counts
        describe what *would* go.
        """
        cutoff = (time.time() if now is None else float(now)) - max(
            float(retain_seconds), 0.0
        )
        report = {state: 0 for state in (STATE_DONE, STATE_FAILED, STATE_CANCELLED)}
        report["results"] = 0
        report["bytes"] = 0
        report["kept"] = 0
        for state in (STATE_DONE, STATE_FAILED, STATE_CANCELLED):
            directory = self._state_dir(state)
            if not directory.is_dir():
                continue
            for path in sorted(directory.glob("*" + _RECORD_SUFFIX)):
                record = self._read_record(path)
                try:
                    size = path.stat().st_size
                    finished = (
                        float(record.finished_at)
                        if record is not None and record.finished_at
                        else path.stat().st_mtime
                    )
                except OSError:
                    continue  # raced with a concurrent collector
                if finished >= cutoff:
                    report["kept"] += 1
                    continue
                job_id = record.id if record is not None else path.stem
                result_path = self.result_path(job_id)
                try:
                    result_size = result_path.stat().st_size
                except OSError:
                    result_size = None
                if not dry_run:
                    try:
                        path.unlink()
                    except OSError:
                        continue  # another collector won this record
                    if result_size is not None:
                        try:
                            result_path.unlink()
                        except OSError:
                            result_size = None
                    self.clear_cancel_request(job_id)
                report[state] += 1
                report["bytes"] += size
                if result_size is not None:
                    report["results"] += 1
                    report["bytes"] += result_size
        return report

    def result_text(self, job: Union[str, JobRecord]) -> str:
        """The stored result payload of a completed job (an id, a unique
        prefix, or a record already read)."""
        record = job if isinstance(job, JobRecord) else self.find(job)
        if record.state != STATE_DONE:
            raise ServiceError(
                f"job {record.id[:12]} is {record.state}, not done"
                + (f" ({record.error})" if record.error else "")
            )
        try:
            return self.result_path(record.id).read_text(encoding="utf-8")
        except OSError as exc:  # pragma: no cover - done implies payload
            raise ServiceError(
                f"result payload for job {record.id[:12]} is unreadable: {exc}"
            ) from exc


def open_service(path: Union[str, os.PathLike], create: bool = True) -> JobQueue:
    """Open (by default creating) the service directory rooted at ``path``.

    The root gains a ``service.json`` manifest recording the schema
    version; re-opening a directory written by an incompatible build raises
    :class:`~repro.errors.ServiceError`.  With ``create=False`` a missing
    service directory is an error — the client commands use this so a typo
    cannot silently spawn an empty service.
    """
    root = Path(path)
    manifest_path = root / _SERVICE_MANIFEST
    exists = manifest_path.is_file()
    if not exists and not create:
        raise ServiceError(
            f"no service at {root} (start one with 'repro-dew serve {root}')"
        )
    if exists:
        try:
            manifest = json.loads(manifest_path.read_text(encoding="ascii"))
        except (OSError, ValueError) as exc:
            raise ServiceError(
                f"unreadable service manifest {manifest_path}: {exc}"
            ) from exc
        if manifest.get("schema") != SERVICE_SCHEMA_VERSION:
            raise ServiceError(
                f"service at {root} uses schema {manifest.get('schema')!r}; "
                f"this build reads version {SERVICE_SCHEMA_VERSION}"
            )
    try:
        for name in (*JOB_STATES, _CANCEL_DIR):
            (root / _JOBS_DIR / name).mkdir(parents=True, exist_ok=True)
        (root / _RESULTS_DIR).mkdir(parents=True, exist_ok=True)
        (root / _EVENTS_DIR).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ServiceError(f"could not create service at {root}: {exc}") from exc
    if not exists:
        _atomic_replace(
            manifest_path,
            lambda handle: json.dump(
                {"schema": SERVICE_SCHEMA_VERSION, "format": "polling-files"},
                handle,
                sort_keys=True,
            ),
            mode="w",
            prefix=".tmp-service-",
        )
    return JobQueue(root)
