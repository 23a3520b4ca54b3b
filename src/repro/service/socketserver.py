"""Unix-domain-socket front end for the simulation service.

Every client operation works over the service directory's files (see
:mod:`repro.service.api`).  This module adds only what a live daemon has
to give: the daemon binds ``<root>/daemon.sock`` and answers ``submit``,
``cancel`` and ``stats`` itself, so a submit wakes its scheduler at once,
its registry counts each request and ``stats`` carries its live counters;
and a waiting client is woken the moment the daemon finishes the job
instead of on its next poll.  Reads never come here: a client reads job
records and payloads from the files.

Wire format: one JSON object per line in each direction, over a persistent
connection.  Requests are ``{"wire": 1, "op": <name>, ...}`` with ``op``
one of ``ping``, ``submit``, ``cancel``, ``stats`` and ``wait``; responses
are the envelopes :func:`~repro.service.api.queue_response` builds for a
client with no daemon, so a client can take either path and see identical
payloads.  The socket is an accelerator, never a requirement: clients fall
back to files whenever no live socket is found.

The server side runs as a daemon thread inside :class:`ServiceDaemon`; a
daemon that cannot bind its socket (path length limits, exotic platforms)
logs the fact in its heartbeat and keeps serving over files.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, Optional

from repro.errors import ServiceError
from repro.obs.metrics import get_registry
from repro.service.queue import (
    STATE_FAILED,
    STATE_QUEUED,
    TERMINAL_STATES,
    JobQueue,
)

#: Interval at which a server-side ``wait`` re-reads the job record even
#: without a completion notification — this is what resolves waits for
#: jobs that end without the daemon (a queued job cancelled over files).
_WAIT_RECHECK_SECONDS = 0.05

#: Safety cap on a single request line (a submit request with a large cell
#: digest list is ~100 bytes per cell; 8 MiB is orders of magnitude above
#: any real grid).
_MAX_LINE_BYTES = 8 * 1024 * 1024


def send_message(handle, payload: Dict[str, Any]) -> None:
    """Write one newline-delimited JSON message."""
    handle.write(json.dumps(payload, sort_keys=True).encode("utf-8") + b"\n")
    handle.flush()


def recv_message(handle) -> Optional[Dict[str, Any]]:
    """Read one newline-delimited JSON message (``None`` on EOF)."""
    line = handle.readline(_MAX_LINE_BYTES)
    if not line:
        return None
    payload = json.loads(line.decode("utf-8"))
    if not isinstance(payload, dict):
        raise ValueError("socket message must be a JSON object")
    return payload


class ServiceSocketServer:
    """The daemon's socket listener: ``submit``, ``cancel``, ``stats``, ``wait``.

    Runs the accept loop in a daemon thread plus one thread per connection.
    ``submit``, ``cancel`` and ``stats`` are answered by the same
    :func:`~repro.service.api.queue_response` a client without a daemon
    runs, so a socket-served submit is indistinguishable on disk from a
    file one.  ``stats_source`` (the owning daemon) swaps its live counters
    into the ``stats`` response in place of the heartbeat file.
    ``on_submit`` is called after every submit that leaves its job queued,
    which is how the owning daemon's scheduler is woken instead of waiting
    out its poll.
    """

    def __init__(
        self,
        queue: JobQueue,
        daemon_id: str,
        stats_source: Optional[Any] = None,
        on_submit: Optional[Callable[[], None]] = None,
    ) -> None:
        self.queue = queue
        self.daemon_id = str(daemon_id)
        self.stats_source = stats_source
        self.on_submit = on_submit
        self.path: Path = queue.socket_path()
        self.requests_served = 0
        self._metric_requests = get_registry().counter(
            "socket_requests_total", help="Requests answered over daemon sockets."
        )
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._stopping = False
        self._finish_cond = threading.Condition()
        # Bumped under the condition per finished job: a wait handler reads
        # it before re-reading the job, and waits only while it is unchanged.
        self._finished = 0

    # -- lifecycle ---------------------------------------------------------------

    @property
    def running(self) -> bool:
        """Whether the listener is bound and accepting."""
        return self._listener is not None and not self._stopping

    def start(self) -> None:
        """Bind the socket and start accepting; raises ``ServiceError`` on failure."""
        try:
            try:
                self.path.unlink()  # a stale socket from a dead previous life
            except OSError:
                pass
            listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            listener.bind(str(self.path))
            listener.listen(16)
        except OSError as exc:
            raise ServiceError(
                f"could not bind service socket {self.path}: {exc}"
            ) from exc
        self._listener = listener
        self._stopping = False
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name=f"svc-sock-{self.daemon_id}", daemon=True
        )
        self._accept_thread.start()

    def stop(self) -> None:
        """Stop accepting, close the listener and remove the socket file."""
        self._stopping = True
        with self._finish_cond:
            self._finish_cond.notify_all()
        listener, self._listener = self._listener, None
        if listener is not None:
            # Shutting the listener down makes a blocked accept() return at
            # once; close() alone leaves it blocked on Linux.
            try:
                listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                listener.close()
            except OSError:
                pass
        try:
            self.path.unlink()
        except OSError:
            pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=2.0)
            self._accept_thread = None

    def notify_job_finished(self) -> None:
        """Wake blocked ``wait`` handlers (called by the daemon per finished job)."""
        with self._finish_cond:
            self._finished += 1
            self._finish_cond.notify_all()

    # -- server loops ------------------------------------------------------------

    def _accept_loop(self) -> None:
        listener = self._listener
        while not self._stopping and listener is not None:
            try:
                connection, _ = listener.accept()
            except OSError:
                break  # listener shut down under us during stop()
            threading.Thread(
                target=self._serve_connection, args=(connection,), daemon=True
            ).start()

    def _serve_connection(self, connection: socket.socket) -> None:
        from repro.service.api import error_response

        try:
            connection.settimeout(None)
            handle = connection.makefile("rwb")
            while not self._stopping:
                try:
                    request = recv_message(handle)
                except (ValueError, OSError):
                    break
                if request is None:
                    break
                try:
                    response = self._dispatch(request)
                except ServiceError as exc:
                    response = error_response(exc)
                except Exception as exc:  # noqa: BLE001 - a request must not kill the server
                    response = error_response(f"{type(exc).__name__}: {exc}")
                # Counted before the answer is sent, so a client that has
                # its answer also sees it counted.
                self.requests_served += 1
                self._metric_requests.inc()
                try:
                    send_message(handle, response)
                except OSError:
                    break
        finally:
            try:
                connection.close()
            except OSError:
                pass

    # -- dispatch ----------------------------------------------------------------

    def _dispatch(self, request: Dict[str, Any]) -> Dict[str, Any]:
        from repro.service.api import SERVICE_WIRE_VERSION, ok_response, queue_response

        if request.get("wire") != SERVICE_WIRE_VERSION:
            raise ServiceError(
                f"socket request uses wire version {request.get('wire')!r}; "
                f"this daemon speaks version {SERVICE_WIRE_VERSION}"
            )
        op = request.get("op")
        if op == "ping":
            return ok_response("pong", daemon_id=self.daemon_id)
        if op == "wait":
            return self._handle_wait(request, ok_response)
        response = queue_response(self.queue, request)
        if op == "submit" and response["state"] == STATE_QUEUED and self.on_submit:
            self.on_submit()
        elif op == "stats" and self.stats_source is not None:
            # The heartbeat file lags by up to a whole job; a client asking
            # the daemon deserves its current numbers.
            try:
                response["daemon"] = dict(self.stats_source.heartbeat())
            except Exception:  # noqa: BLE001 - stats must degrade, not fail
                pass
        return response

    def _handle_wait(self, request, ok_response) -> Dict[str, Any]:
        """Block until the job is terminal (or failed), then answer.

        The fast path is the daemon's ``notify_job_finished`` call; the
        periodic re-check covers jobs that end without the daemon and a
        server shutting down mid-wait.  The finish count is read before the
        job is, so a job that finishes after that read is never waited out.
        """
        job_id = str(request["job"])
        timeout = float(request.get("timeout", 60.0))
        deadline = time.monotonic() + timeout
        while True:
            with self._finish_cond:
                seen = self._finished
            record = self.queue.find(job_id)
            if record.state in TERMINAL_STATES or record.state == STATE_FAILED:
                return ok_response("wait", job=record.to_dict())
            if self._stopping:
                raise ServiceError("daemon is shutting down; retry over polling")
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ServiceError(
                    f"timed out after {timeout:g}s waiting for job "
                    f"{record.id[:12]} (state: {record.state})"
                )
            with self._finish_cond:
                if self._finished == seen and not self._stopping:
                    self._finish_cond.wait(min(_WAIT_RECHECK_SECONDS, remaining))


class SocketTransport:
    """Client side of the socket protocol: one connection, serial requests.

    Thread-safe (requests are serialized on a lock).  Any transport-level
    failure raises ``OSError``/``ValueError`` to the caller, which is the
    :class:`~repro.service.api.ServiceClient`'s cue to fall back to the
    polling-file path; protocol-level errors (``{"ok": false}``) surface as
    :class:`~repro.errors.ServiceError` exactly like file-path failures.
    """

    def __init__(self, path: Path, connect_timeout: float = 0.5) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.settimeout(connect_timeout)
        try:
            self._sock.connect(str(self.path))
        except OSError:
            self._sock.close()
            raise
        self._handle = self._sock.makefile("rwb")

    def request(
        self, payload: Dict[str, Any], timeout: Optional[float] = 30.0
    ) -> Dict[str, Any]:
        """One request/response round trip (raises ``OSError`` on dead sockets)."""
        with self._lock:
            self._sock.settimeout(timeout)
            send_message(self._handle, payload)
            response = recv_message(self._handle)
        if response is None:
            raise OSError("service socket closed by the daemon")
        return response

    def close(self) -> None:
        """Close the connection (idempotent)."""
        try:
            self._handle.close()
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass


def discover_socket(
    queue: JobQueue, connect_timeout: float = 0.5
) -> Optional[SocketTransport]:
    """Connect to the service's daemon socket, or ``None`` if none answers.

    Liveness is verified with a ``ping``: a stale socket file left by a
    SIGKILLed daemon fails to connect (or to answer) and reads as no daemon.
    """
    from repro.service.api import SERVICE_WIRE_VERSION

    try:
        transport = SocketTransport(queue.socket_path(), connect_timeout=connect_timeout)
    except OSError:
        return None
    try:
        response = transport.request(
            {"wire": SERVICE_WIRE_VERSION, "op": "ping"}, timeout=connect_timeout
        )
        if response.get("ok") and response.get("type") == "pong":
            return transport
    except (OSError, ValueError):
        pass
    transport.close()
    return None


__all__ = [
    "ServiceSocketServer",
    "SocketTransport",
    "discover_socket",
    "recv_message",
    "send_message",
]
