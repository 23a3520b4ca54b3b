"""JSON wire schema and the :class:`ServiceClient`.

Clients and the daemon share one service directory (the
:class:`~repro.service.queue.JobQueue` layout).  Every client operation
works whether or not a daemon is alive: jobs queue up and are drained when
one starts.  Each operation has one implementation:

* ``status``, ``result_text``, ``result_frame`` and ``jobs`` read the
  queue's files, with or without a daemon;
* ``submit``, ``cancel`` and ``stats`` are answered by
  :func:`queue_response`.  A live daemon runs it behind its Unix-domain
  socket (see :mod:`repro.service.socketserver`) and adds what only it
  has: a submit wakes its scheduler at once, its registry counts the
  request, and ``stats`` carries its live counters.  With no daemon
  answering, the client runs it itself over the files;
* ``wait`` blocks on the daemon's completion notice over the socket, and
  polls the job's record when no daemon is there to send one.

Transport choice is per-client (``transport="auto" | "files" | "socket"``)
and applies to the operations that use the socket; ``auto`` falls back to
files on any socket failure, so the socket is purely an accelerator.

Every client operation has a JSON request/response shape so the CLI's
``--format json`` output is machine-consumable and stable:

* ``submit``  -> ``{"ok": true, "type": "submit", "job_id": ..., "deduped": ...}``
* ``status``  -> ``{"ok": true, "type": "status", "job": {...}}``
* ``result``  -> the job's result payload verbatim (the exact bytes
  ``repro-dew sweep --format json`` would print for the same grid)
* ``cancel``  -> ``{"ok": true, "type": "cancel", "job": {...}}``
* ``stats``   -> ``{"ok": true, "type": "stats", "queue": {...}, ...,
  "daemon": {...}}`` (the daemon's heartbeat, ``null`` before the first)

Errors become ``{"ok": false, "error": "..."}`` with a non-zero exit code
at the CLI.

The canonical job identity reuses the store's content addressing: a request
is decomposed into the same :class:`~repro.engine.sweep.SweepJob` grid a
direct sweep would run, and the job id is the SHA-256 of the trace
fingerprint plus the sorted per-cell store-key digests.  Two requests that
would simulate the same cells over the same trace therefore collapse onto
one queue entry, no matter how their options were spelled.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.core.config import doubling_set_sizes
from repro.core.results import ResultsFrame
from repro.engine.sweep import SweepJob, build_grid_jobs, build_mechanism_grid_jobs
from repro.errors import ReproError, ServiceError
from repro.obs.tracing import new_trace_id
from repro.service.queue import (
    DEFAULT_EVENT_RETAIN_SECONDS,
    STATE_DONE,
    STATE_FAILED,
    STATE_RUNNING,
    TERMINAL_STATES,
    JobQueue,
    JobRecord,
    open_service,
)
from repro.service.socketserver import SocketTransport, discover_socket
from repro.trace.files import load_trace_file
from repro.trace.trace import Trace

#: Version of the request/response wire format.
SERVICE_WIRE_VERSION = 1

#: Default sizes swept when a request does not pin ``max_sets``.
DEFAULT_MAX_SETS = 16384


def ok_response(kind: str, **body: Any) -> Dict[str, Any]:
    """A successful wire response envelope."""
    payload: Dict[str, Any] = {"ok": True, "type": kind, "wire": SERVICE_WIRE_VERSION}
    payload.update(body)
    return payload


def error_response(error: Union[str, Exception]) -> Dict[str, Any]:
    """A failed wire response envelope."""
    return {"ok": False, "wire": SERVICE_WIRE_VERSION, "error": str(error)}


@dataclass(frozen=True)
class SweepRequest:
    """One client sweep request (the ``request`` field of a job record).

    The grid parameters mirror ``repro-dew sweep``'s; the request is
    decomposed into engine jobs with the same :func:`build_grid_jobs`
    call a direct sweep uses, which is what makes service results
    byte-identical to direct ones.
    """

    trace_path: str
    block_sizes: Tuple[int, ...] = (4, 16, 64)
    associativities: Tuple[int, ...] = (1, 4, 8)
    max_sets: int = DEFAULT_MAX_SETS
    policies: Tuple[str, ...] = ("fifo",)
    seed: int = 0
    mechanisms: Tuple[str, ...] = ()
    mechanism_entries: Tuple[int, ...] = (2, 4, 8, 16)

    def to_wire(self) -> Dict[str, Any]:
        """JSON-able request payload stored in the job record."""
        return {
            "wire": SERVICE_WIRE_VERSION,
            "trace_path": self.trace_path,
            "block_sizes": list(self.block_sizes),
            "associativities": list(self.associativities),
            "max_sets": self.max_sets,
            "policies": list(self.policies),
            "seed": self.seed,
            "mechanisms": list(self.mechanisms),
            "mechanism_entries": list(self.mechanism_entries),
        }

    @classmethod
    def from_wire(cls, payload: Dict[str, Any]) -> "SweepRequest":
        """Inverse of :meth:`to_wire`.

        The mechanism fields read tolerantly (``.get`` with the dataclass
        defaults), so mechanism-free payloads written by older builds stay
        acceptable without a wire-version bump.  A ``stream_depth`` field,
        which older builds wrote and which changed no result, is ignored.
        """
        if payload.get("wire") != SERVICE_WIRE_VERSION:
            raise ServiceError(
                f"request uses wire version {payload.get('wire')!r}; "
                f"this build reads version {SERVICE_WIRE_VERSION}"
            )
        return cls(
            trace_path=str(payload["trace_path"]),
            block_sizes=tuple(int(b) for b in payload["block_sizes"]),
            associativities=tuple(int(a) for a in payload["associativities"]),
            max_sets=int(payload.get("max_sets", DEFAULT_MAX_SETS)),
            policies=tuple(str(p) for p in payload["policies"]),
            seed=int(payload.get("seed", 0)),
            mechanisms=tuple(str(m) for m in payload.get("mechanisms", ())),
            mechanism_entries=tuple(
                int(e) for e in payload.get("mechanism_entries", (2, 4, 8, 16))
            ),
        )

    def build_jobs(self) -> List[SweepJob]:
        """The engine-job decomposition a direct sweep would execute."""
        jobs = build_grid_jobs(
            block_sizes=self.block_sizes,
            associativities=self.associativities,
            set_sizes=doubling_set_sizes(self.max_sets),
            policies=self.policies,
            seed=self.seed,
        )
        if self.mechanisms:
            jobs += build_mechanism_grid_jobs(
                self.mechanisms,
                block_sizes=self.block_sizes,
                associativities=self.associativities,
                set_sizes=doubling_set_sizes(self.max_sets),
                entry_counts=self.mechanism_entries,
                policies=self.policies,
                seed=self.seed,
            )
        return jobs

    def load_trace(self, cache: Optional[Any] = None) -> Trace:
        """Load the request's trace file.

        ``cache`` (a :class:`~repro.trace.planecache.TracePlaneCache`)
        enables the fingerprint sidecar, so a warm load skips the
        full-array hash — see :func:`~repro.trace.files.load_trace_file`.
        """
        return load_trace_file(self.trace_path, cache=cache)

    def cell_digests(self, trace_fingerprint: str) -> List[str]:
        """Sorted store-key digests of every cell this request covers."""
        return sorted(
            job.store_key(trace_fingerprint).digest for job in self.build_jobs()
        )

    def canonical_job_id(
        self,
        trace_fingerprint: str,
        cell_digests: Optional[List[str]] = None,
    ) -> str:
        """Content identity of this request: trace + cell store addresses.

        Requests that cover the same cells over the same trace — however
        their grids were spelled — share an id, which is what makes queue
        submission idempotent and duplicate submissions free.  Callers that
        already hold the digests (the submit path computes them once, for
        the id and the cell count) pass them in to skip recomputing.
        """
        payload = json.dumps(
            {
                "schema": SERVICE_WIRE_VERSION,
                "trace": str(trace_fingerprint),
                "cells": (
                    sorted(cell_digests)
                    if cell_digests is not None
                    else self.cell_digests(trace_fingerprint)
                ),
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("ascii")).hexdigest()


def queue_response(queue: JobQueue, request: Dict[str, Any]) -> Dict[str, Any]:
    """The response to a ``submit``, ``cancel`` or ``stats`` request over ``queue``.

    The socket server answers these ops with it inside the daemon, and a
    client with no daemon answering calls it itself, so both report one
    shape.  ``stats`` carries the daemon's last heartbeat under ``daemon``
    (``None`` before its first); the socket server swaps in its live
    counters.  Any other op raises :class:`~repro.errors.ServiceError`.
    """
    op = request.get("op")
    if op == "submit":
        record, deduped = queue.submit(
            str(request["job_id"]),
            dict(request["request"]),
            priority=int(request.get("priority", 0)),
        )
        return ok_response(
            "submit",
            job_id=record.id,
            state=record.state,
            deduped=deduped,
            priority=record.priority,
            trace_id=str(record.request.get("trace_id", "")) or None,
        )
    if op == "cancel":
        record = queue.cancel(str(request["job"]))
        return ok_response(
            "cancel", job=record.to_dict(), requested=record.state == STATE_RUNNING
        )
    if op == "stats":
        counts = queue.counts()
        submissions = queue.submissions()
        coalesced = max(submissions - sum(counts.values()), 0)
        return ok_response(
            "stats",
            queue=counts,
            submissions=submissions,
            distinct_jobs=sum(counts.values()),
            coalesced_submissions=coalesced,
            dedup_ratio=round(coalesced / submissions, 6) if submissions else 0.0,
            daemon=queue.heartbeat(),
        )
    raise ServiceError(f"unknown socket operation {op!r}")


class ServiceClient:
    """Client surface over one service directory (files and/or socket).

    Reads (:meth:`status`, :meth:`result_text`, :meth:`result_frame`,
    :meth:`jobs`) always go to the shared
    :class:`~repro.service.queue.JobQueue`'s files.  With
    ``transport="auto"`` (the default) :meth:`submit`, :meth:`cancel`,
    :meth:`stats` and :meth:`wait` look for a live daemon socket on first
    use and go through it, so the daemon wakes at once and :meth:`wait`
    has no polling floor; without one, or the moment the socket
    misbehaves, they act on the files.  ``transport="files"`` never
    touches sockets; ``transport="socket"`` makes socket failures hard
    errors instead of silent fallbacks.
    """

    def __init__(
        self,
        root: Union[str, os.PathLike],
        create: bool = False,
        transport: str = "auto",
        trace_cache: Union[None, bool, str, os.PathLike, Any] = None,
    ) -> None:
        if transport not in ("auto", "files", "socket"):
            raise ServiceError(
                f"unknown transport {transport!r} (expected auto, files or socket)"
            )
        self.queue = open_service(root, create=create)
        self.transport = transport
        self._socket: Optional[SocketTransport] = None
        self._socket_missing = False
        # None -> share the service's own plane cache (<root>/tracecache),
        # the same directory the daemon uses, so a submit's fingerprint
        # sidecar is already warm when the daemon runs the job.  False
        # disables; a path or open cache overrides.
        self._trace_cache_setting = trace_cache
        self._plane_cache_ready = False
        self._plane_cache: Optional[Any] = None

    def plane_cache(self) -> Optional[Any]:
        """The client's trace plane cache, opened lazily (``None`` if disabled).

        Cache failures (unwritable directory, foreign manifest) degrade to
        no cache rather than failing the operation — the cache is an
        accelerator, never a correctness dependency.
        """
        if not self._plane_cache_ready:
            self._plane_cache_ready = True
            setting = self._trace_cache_setting
            if setting is None or setting is True:
                setting = self.queue.root / "tracecache"
            try:
                from repro.trace.planecache import coerce_plane_cache

                self._plane_cache = coerce_plane_cache(setting)
            except (OSError, ReproError):
                self._plane_cache = None
        return self._plane_cache

    # -- socket plumbing ---------------------------------------------------------

    @property
    def using_socket(self) -> bool:
        """Whether a daemon socket is currently connected."""
        return self._socket is not None

    def close(self) -> None:
        """Drop the socket connection, if any (the file path needs no close)."""
        socket_transport, self._socket = self._socket, None
        if socket_transport is not None:
            socket_transport.close()

    def _socket_transport(self, rediscover: bool = False) -> Optional[SocketTransport]:
        if self.transport == "files":
            return None
        if self._socket is not None:
            return self._socket
        if self._socket_missing and not rediscover and self.transport == "auto":
            return None  # no daemon was listening; stay on files until asked
        self._socket = discover_socket(self.queue)
        self._socket_missing = self._socket is None
        if self._socket is None and self.transport == "socket":
            raise ServiceError(
                f"no live daemon socket at {self.queue.socket_path()}"
            )
        return self._socket

    def _socket_request(
        self, payload: Dict[str, Any], timeout: float = 30.0
    ) -> Optional[Dict[str, Any]]:
        """One socket round trip, or ``None`` when the file path should serve.

        A connection that dies mid-request gets one rediscovery (the
        daemon may have restarted); after that, ``auto`` clients fall back
        to files and ``socket`` clients raise.
        """
        payload = dict(payload)
        payload["wire"] = SERVICE_WIRE_VERSION
        for attempt in (False, True):
            transport = self._socket_transport(rediscover=attempt)
            if transport is None:
                return None
            try:
                return transport.request(payload, timeout=timeout)
            except (OSError, ValueError) as exc:
                self.close()
                if attempt:
                    if self.transport == "socket":
                        raise ServiceError(
                            f"daemon socket request failed: {exc}"
                        ) from exc
                    return None
        return None  # pragma: no cover - loop always returns

    def _call(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """A ``submit``, ``cancel`` or ``stats`` through the live daemon, or
        answered here over the files when no daemon answers."""
        response = self._socket_request(request)
        if response is None:
            return queue_response(self.queue, request)
        if not response.get("ok", False):
            raise ServiceError(str(response.get("error", "service request failed")))
        return response

    # -- operations --------------------------------------------------------------

    def submit(
        self,
        request: SweepRequest,
        priority: int = 0,
        trace: Optional[Trace] = None,
    ) -> Dict[str, Any]:
        """Enqueue a sweep request; idempotent per canonical identity.

        The trace is loaded (or taken from ``trace=``) to fingerprint it —
        identity is *content*-addressed, so renaming a trace file does not
        defeat coalescing, and a changed file under the same name cannot
        serve stale results.  With the plane cache enabled (the default),
        the fingerprint rides the ``(path, mtime, size)`` sidecar: the
        first submit of a corpus hashes it once and every later submit —
        and the daemon executing the job — reads the sidecar instead of
        re-hashing the same bytes.
        """
        if trace is None:
            cache = self.plane_cache()
            fingerprint = (
                cache.cached_fingerprint(request.trace_path)
                if cache is not None
                else None
            )
            if fingerprint is None:
                # Cold: load + hash once, then record the sidecar so the
                # daemon (and the next submit) skips both.
                trace = request.load_trace(cache=cache)
                fingerprint = trace.fingerprint()
        else:
            # An explicitly passed trace may not match the file at
            # trace_path, so its fingerprint must not seed the sidecar.
            fingerprint = trace.fingerprint()
        # One grid decomposition serves both the id and the cell count.
        digests = request.cell_digests(fingerprint)
        job_id = request.canonical_job_id(fingerprint, cell_digests=digests)
        wire = request.to_wire()
        wire["trace_fingerprint"] = fingerprint
        wire["cells"] = len(digests)
        # The trace id is minted here — the submitting edge — and rides the
        # durable job record, so every span the daemon emits for this job
        # (including a re-execution after a crash) carries the same id.  A
        # deduped submission keeps the *original* submission's id: the
        # coalesced request observes the first request's trace.
        wire["trace_id"] = new_trace_id()
        return self._call(
            {"op": "submit", "job_id": job_id, "request": wire, "priority": priority}
        )

    def status(self, job_id: str) -> Dict[str, Any]:
        """The job's current record."""
        return ok_response("status", job=self.queue.find(job_id).to_dict())

    def result_text(self, job_id: str) -> str:
        """A completed job's result payload, verbatim.

        This is byte-identical to what ``repro-dew sweep --format json``
        prints for the same grid over the same trace.
        """
        return self.queue.result_text(job_id)

    def result_frame(self, job_id: str) -> ResultsFrame:
        """A completed job's results as a columnar frame.

        This is the hand-off to the exploration layer: the frame feeds
        ``explore pareto`` / ``explore tune`` exactly like a sweep JSON
        payload or a store directory does.
        """
        return ResultsFrame.from_json_payload(json.loads(self.result_text(job_id)))

    def cancel(self, job_id: str) -> Dict[str, Any]:
        """Cancel a job.

        Queued and failed jobs flip to ``cancelled`` immediately; for a
        *running* job a durable cancel request is recorded instead and the
        daemon stops it between cells — the response carries
        ``requested=True`` and the job's still-running record in that case.
        """
        return self._call({"op": "cancel", "job": job_id})

    def prune_events(self, retain_seconds: float = DEFAULT_EVENT_RETAIN_SECONDS) -> int:
        """Prune stale submit-event files (see :meth:`JobQueue.prune_events`)."""
        return self.queue.prune_events(retain_seconds)

    def jobs(self, state: Optional[str] = None) -> List[Dict[str, Any]]:
        """All job records (optionally filtered by state) in claim order."""
        return [record.to_dict() for record in self.queue.records(state)]

    def stats(self) -> Dict[str, Any]:
        """Queue counts, dedup accounting and the daemon's heartbeat."""
        return self._call({"op": "stats"})

    def wait(
        self,
        job_id: str,
        timeout: float = 60.0,
        poll_interval: float = 0.05,
        max_poll_interval: float = 1.0,
    ) -> JobRecord:
        """Block until the job reaches a terminal state (or ``failed``).

        Socket-connected clients park the wait inside the daemon, which
        wakes them the moment the job finishes — no polling at all.  The
        file path polls with capped exponential backoff plus jitter
        (starting at ``poll_interval``, capped at ``max_poll_interval``,
        reset whenever the observed state changes), so a long wait on an
        idle deep queue stops hammering the record files with ``stat``
        calls while a job that just went ``queued -> running`` is sampled
        eagerly again.  Returns the final record; raises
        :class:`~repro.errors.ServiceError` when ``timeout`` elapses first.
        """
        deadline = time.monotonic() + float(timeout)
        response = self._socket_request(
            {"op": "wait", "job": job_id, "timeout": float(timeout)},
            timeout=float(timeout) + 5.0,
        )
        if response is not None:
            if response.get("ok", False):
                return JobRecord.from_dict(response["job"])
            error = str(response.get("error", ""))
            if "shutting down" not in error:
                raise ServiceError(error or "service request failed")
            # The daemon stopped mid-wait: finish the wait over files.
        interval = max(float(poll_interval), 0.001)
        cap = max(float(max_poll_interval), interval)
        last_state: Optional[str] = None
        while True:
            record = self.queue.find(job_id)
            if record.state in TERMINAL_STATES or record.state == STATE_FAILED:
                return record
            if record.state != last_state:
                last_state = record.state
                interval = max(float(poll_interval), 0.001)
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ServiceError(
                    f"timed out after {timeout:g}s waiting for job "
                    f"{record.id[:12]} (state: {record.state})"
                )
            time.sleep(min(interval * (0.5 + random.random()), remaining))
            interval = min(interval * 1.7, cap)

    def result_when_done(
        self, job_id: str, timeout: float = 60.0, poll_interval: float = 0.05
    ) -> str:
        """Convenience: :meth:`wait` then :meth:`result_text`."""
        record = self.wait(job_id, timeout=timeout, poll_interval=poll_interval)
        if record.state != STATE_DONE:
            raise ServiceError(
                f"job {record.id[:12]} finished as {record.state}"
                + (f": {record.error}" if record.error else "")
            )
        return self.result_text(record.id)
