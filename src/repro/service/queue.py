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
    <root>/daemons/<id>.json      per-daemon heartbeat + counters (the lease clock)
    <root>/sockets/<id>.sock      per-daemon Unix socket (low-latency transport)
    <root>/daemon.json            most recent heartbeat (legacy single-daemon alias)

Durability rules mirror the result store's:

* **State transitions are single renames.**  Claiming a job is one
  ``os.replace(queued/x, running/x)`` — atomic on POSIX, and it *fails* for
  every claimant but one, so concurrent claimants (including claimants in
  different daemon processes) can never double-claim.  Completing, failing
  and cancelling are the same primitive.
* **Claims are leased.**  A claim records the claiming daemon's id and a
  lease expiry; the daemon renews the lease simply by writing its heartbeat
  file (``daemons/<id>.json``).  :meth:`JobQueue.recover` therefore
  distinguishes a crashed daemon's stranded jobs (dead pid, stale
  heartbeat, or expired lease — reclaimed) from a live peer's in-progress
  ones (fresh heartbeat — left alone), which is what makes running N
  daemons against one service directory safe.
* **Record rewrites are atomic.**  Progress updates go through the shared
  temp-file-plus-rename writer, so a kill mid-update leaves the previous
  consistent record, never a truncated one.
* **A crash is recoverable by construction.**  A daemon killed mid-job
  leaves the record under ``running/``; :meth:`JobQueue.recover` moves it
  back to ``queued`` on the next startup, and because execution is
  store-backed the re-run pays only for cells that were not yet persisted.
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
import socket as _socketmod
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.errors import ServiceError
from repro.obs.metrics import get_registry
from repro.store.resultstore import _atomic_replace

#: Version of the service directory layout and job record schema.
SERVICE_SCHEMA_VERSION = 1

#: Job lifecycle states; each is a sub-directory of ``jobs/``.
STATE_QUEUED = "queued"
STATE_RUNNING = "running"
STATE_DONE = "done"
STATE_FAILED = "failed"
STATE_CANCELLED = "cancelled"
JOB_STATES: Tuple[str, ...] = (
    STATE_QUEUED,
    STATE_RUNNING,
    STATE_DONE,
    STATE_FAILED,
    STATE_CANCELLED,
)

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

#: Per-daemon heartbeat files (``<root>/daemons/<daemon_id>.json``) — the
#: fleet's liveness registry and the lease-renewal clock.
_DAEMONS_DIR = "daemons"

#: Per-daemon Unix-domain sockets (``<root>/sockets/<daemon_id>.sock``).
_SOCKETS_DIR = "sockets"

#: How long a claimed job stays owned without a heartbeat renewal before
#: another daemon's recovery may reclaim it.  Must comfortably exceed the
#: daemon's heartbeat cadence (one write per scheduler tick).
DEFAULT_LEASE_SECONDS = 30.0

#: Default retention for finished/failed/cancelled job records and their
#: result payloads (``queue gc``): one week.
DEFAULT_JOB_RETAIN_SECONDS = 7 * 86_400.0


def _local_host() -> str:
    """This machine's name, as recorded in heartbeats for pid-probe scoping."""
    try:
        return _socketmod.gethostname()
    except OSError:  # pragma: no cover - hostname lookup failure
        return ""


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
    lease_expires_at: Optional[float] = None
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
            "lease_expires_at": self.lease_expires_at,
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
            lease_expires_at=payload.get("lease_expires_at"),
            extra=dict(payload.get("extra", {})),
        )


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
            return JobRecord.from_dict(payload)
        except (KeyError, TypeError, ValueError):
            return None

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
        existing = self._locate(job_id)
        if existing is not None:
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
            self._write_record(STATE_QUEUED, record)
            self._transition(state, STATE_QUEUED, job_id, rewritten=True)
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

    def _transition(
        self, source: str, target: str, job_id: str, rewritten: bool = False
    ) -> None:
        """Atomically move a job file between state directories.

        With ``rewritten=True`` the target file has already been written and
        the rename just removes the stale source copy — a source that is
        already gone (a concurrent actor performed the same transition, e.g.
        two clients resubmitting the same failed job) is therefore not an
        error: the desired end state holds either way.
        """
        source_path = self._record_path(source, job_id)
        target_path = self._record_path(target, job_id)
        try:
            if rewritten:
                source_path.unlink()
            else:
                os.replace(source_path, target_path)
        except FileNotFoundError:
            if rewritten:
                return
            raise ServiceError(
                f"job {job_id[:12]} left state {source!r} concurrently"
            ) from None

    def claim(
        self,
        accept: Optional[Callable[[JobRecord], bool]] = None,
        daemon_id: Optional[str] = None,
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
    ) -> Optional[JobRecord]:
        """Atomically claim the best queued job, or ``None`` when idle.

        Queued jobs are considered in (priority desc, submission order)
        sequence; ``accept`` lets the caller skip jobs it cannot run yet
        (the daemon uses it to defer jobs whose cells overlap work already
        in flight).  The claim itself is one ``os.replace`` — if another
        claimant (thread or daemon process) wins the race, the next
        candidate is tried, so any number of daemons can drain one queue
        and a job is only ever executed by exactly one of them.

        ``daemon_id`` records ownership on the running record, and the
        claim carries a lease expiring ``lease_seconds`` from now.  The
        expiry written here is only the *fallback* deadline: as long as the
        owner keeps writing its heartbeat file the lease is considered
        renewed (see :meth:`lease_deadline`), so progress rewrites of the
        record never race a renewal.
        """
        for record in self.records(STATE_QUEUED):
            if accept is not None and not accept(record):
                continue
            source = self._record_path(STATE_QUEUED, record.id)
            target = self._record_path(STATE_RUNNING, record.id)
            try:
                os.replace(source, target)
            except FileNotFoundError:
                continue  # lost the race; try the next candidate
            record.attempts += 1
            record.started_at = time.time()
            record.error = None
            record.daemon_id = daemon_id
            record.lease_expires_at = record.started_at + max(float(lease_seconds), 0.0)
            self._write_record(STATE_RUNNING, record)
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
        self._write_record(STATE_DONE, record)
        self._transition(STATE_RUNNING, STATE_DONE, record.id, rewritten=True)
        self.clear_cancel_request(record.id)
        self._metric_completed.inc()

    def fail(self, record: JobRecord, error: str) -> None:
        """Flip a running job to ``failed`` with the error message."""
        record.error = str(error)
        record.finished_at = time.time()
        self._write_record(STATE_FAILED, record)
        self._transition(STATE_RUNNING, STATE_FAILED, record.id, rewritten=True)
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
        if record.state in (STATE_QUEUED, STATE_FAILED):
            source_state = record.state
            record.finished_at = time.time()
            self._write_record(STATE_CANCELLED, record)
            self._transition(source_state, STATE_CANCELLED, record.id, rewritten=True)
            self._metric_cancelled.inc()
            return record
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
        self._write_record(STATE_CANCELLED, record)
        self._transition(STATE_RUNNING, STATE_CANCELLED, record.id, rewritten=True)
        self.clear_cancel_request(record.id)
        self._metric_cancelled.inc()

    # -- fleet liveness ----------------------------------------------------------

    def daemons_dir(self) -> Path:
        """Directory of per-daemon heartbeat files."""
        return self.root / _DAEMONS_DIR

    def sockets_dir(self) -> Path:
        """Directory of per-daemon Unix-domain sockets."""
        return self.root / _SOCKETS_DIR

    def heartbeat_path(self, daemon_id: str) -> Path:
        """Where the given daemon's heartbeat file lives."""
        return self.daemons_dir() / (str(daemon_id) + _RECORD_SUFFIX)

    def daemon_heartbeats(self) -> Dict[str, Dict[str, Any]]:
        """Every daemon's last heartbeat payload, keyed by daemon id.

        Unreadable files are skipped (a heartbeat mid-rewrite is unreadable
        for at most one atomic rename).  Includes dead daemons' final
        heartbeats — liveness is the *reader's* judgement, via
        :meth:`lease_deadline`.
        """
        directory = self.daemons_dir()
        heartbeats: Dict[str, Dict[str, Any]] = {}
        if not directory.is_dir():
            return heartbeats
        for path in sorted(directory.glob("*" + _RECORD_SUFFIX)):
            try:
                payload = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                continue
            if isinstance(payload, dict):
                heartbeats[path.stem] = payload
        return heartbeats

    @staticmethod
    def _heartbeat_alive(
        payload: Dict[str, Any], lease_seconds: float, now: float
    ) -> bool:
        """Whether a heartbeat payload attests a live daemon.

        Fresh heartbeat -> alive.  A heartbeat from *this* host whose pid no
        longer exists -> dead regardless of freshness, which is what lets a
        restart (or a surviving peer) reclaim a SIGKILLed daemon's jobs
        immediately instead of waiting out the lease.
        """
        try:
            updated_at = float(payload.get("updated_at", 0.0))
        except (TypeError, ValueError):
            return False
        if now - updated_at >= max(float(lease_seconds), 0.0):
            return False
        return not JobQueue._heartbeat_pid_dead(payload)

    @staticmethod
    def _heartbeat_pid_dead(payload: Dict[str, Any]) -> bool:
        """Whether the heartbeat's pid provably no longer exists.

        Only a same-host ``ProcessLookupError`` counts: other hosts cannot
        be probed, and ``EPERM`` means the process exists under another
        user.  A true result is the strongest death evidence there is — the
        owner cannot possibly still be executing its jobs.
        """
        pid = payload.get("pid")
        host = payload.get("host")
        if isinstance(pid, int) and (host is None or host == _local_host()):
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                return True
            except OSError:
                pass
        return False

    def lease_deadline(
        self,
        record: JobRecord,
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
        heartbeats: Optional[Dict[str, Dict[str, Any]]] = None,
        now: Optional[float] = None,
    ) -> float:
        """The moment ``record``'s claim lease runs out.

        The lease is renewed by the owner's heartbeat: the deadline is the
        later of the claim-time expiry written on the record and (last
        heartbeat + ``lease_seconds``).  An owner whose pid is provably dead
        on this host forfeits the lease immediately; a record with no owner
        id at all (pre-lease records, or direct :meth:`claim` calls without
        a daemon id) has only its claim-time expiry, defaulting to 0 —
        i.e. immediately reclaimable, the pre-fleet behaviour.
        """
        moment = time.time() if now is None else float(now)
        deadline = float(record.lease_expires_at or 0.0)
        if not record.daemon_id:
            return deadline
        payload = (
            heartbeats if heartbeats is not None else self.daemon_heartbeats()
        ).get(record.daemon_id)
        if payload is None:
            return deadline
        if not self._heartbeat_alive(payload, lease_seconds, moment):
            if self._heartbeat_pid_dead(payload):
                # A provably-dead owner forfeits immediately — this is what
                # lets a survivor reclaim a SIGKILLed peer's jobs without
                # waiting out the lease.
                return 0.0
            # Stale heartbeat: only the shorter of the claim-time expiry
            # and the last renewal holds.
            try:
                updated_at = float(payload.get("updated_at", 0.0))
            except (TypeError, ValueError):
                updated_at = 0.0
            return min(deadline, updated_at + max(float(lease_seconds), 0.0))
        try:
            updated_at = float(payload.get("updated_at", 0.0))
        except (TypeError, ValueError):
            updated_at = 0.0
        return max(deadline, updated_at + max(float(lease_seconds), 0.0))

    def recover(
        self,
        daemon_id: Optional[str] = None,
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
        reclaim_own: bool = True,
        now: Optional[float] = None,
    ) -> List[JobRecord]:
        """Re-queue running jobs stranded by dead daemons; spare live peers.

        Called by every daemon at startup and periodically afterwards.  A
        running record is reclaimed when its owner is provably gone:

        * it carries no owner id (legacy records, or a claim that died
          between the rename and the record rewrite);
        * it is owned by *this* daemon id and ``reclaim_own`` is true — a
          daemon's own id appearing at startup means a previous life of the
          same daemon died mid-job (periodic recovery passes
          ``reclaim_own=False`` so it never steals its own live work);
        * its lease has run out (see :meth:`lease_deadline`: stale or
          absent heartbeat past the claim expiry, or a dead pid).

        Jobs whose owner still holds a live lease are left alone — that is
        the property that makes an N-daemon fleet safe.  Progress counters
        of reclaimed jobs are reset (the store, not the record, is the
        source of truth for completed cells — the re-run loads persisted
        cells instead of re-simulating them).
        """
        moment = time.time() if now is None else float(now)
        heartbeats = self.daemon_heartbeats()
        recovered = []
        for record in self.records(STATE_RUNNING):
            owner = record.daemon_id
            if owner and daemon_id and owner == daemon_id:
                if not reclaim_own:
                    continue
            elif owner:
                deadline = self.lease_deadline(
                    record, lease_seconds, heartbeats=heartbeats, now=moment
                )
                if moment < deadline:
                    continue  # a live peer is executing this job
            record.cells_done = 0
            record.cells_cached = 0
            record.daemon_id = None
            record.lease_expires_at = None
            self._write_record(STATE_QUEUED, record)
            self._transition(STATE_RUNNING, STATE_QUEUED, record.id, rewritten=True)
            recovered.append(record)
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

    def result_text(self, job_id_or_prefix: str) -> str:
        """The stored result payload of a completed job."""
        record = self.find(job_id_or_prefix)
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
    if not manifest_path.is_file():
        if not create:
            raise ServiceError(
                f"no service at {root} (start one with 'repro-dew serve {root}')"
            )
        try:
            for name in JOB_STATES:
                (root / _JOBS_DIR / name).mkdir(parents=True, exist_ok=True)
            (root / _JOBS_DIR / _CANCEL_DIR).mkdir(parents=True, exist_ok=True)
            (root / _RESULTS_DIR).mkdir(parents=True, exist_ok=True)
            (root / _EVENTS_DIR).mkdir(parents=True, exist_ok=True)
            (root / _DAEMONS_DIR).mkdir(parents=True, exist_ok=True)
            (root / _SOCKETS_DIR).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ServiceError(f"could not create service at {root}: {exc}") from exc
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
    else:
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
        for name in JOB_STATES:
            (root / _JOBS_DIR / name).mkdir(parents=True, exist_ok=True)
        (root / _JOBS_DIR / _CANCEL_DIR).mkdir(parents=True, exist_ok=True)
        (root / _RESULTS_DIR).mkdir(parents=True, exist_ok=True)
        (root / _EVENTS_DIR).mkdir(parents=True, exist_ok=True)
        (root / _DAEMONS_DIR).mkdir(parents=True, exist_ok=True)
        (root / _SOCKETS_DIR).mkdir(parents=True, exist_ok=True)
    return JobQueue(root)
