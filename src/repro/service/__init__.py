"""Store-backed simulation service: durable queue, daemon and client.

The service layer turns the one-shot sweep pipeline into a long-running,
multi-client system while preserving the byte-identity guarantees the rest
of the package is built on — a sweep served from the daemon returns exactly
the payload of :func:`repro.engine.sweep.run_sweep` executed directly.

``queue``
    :class:`JobQueue`, a crash-safe on-disk job queue: atomic enqueue /
    claim / complete state transitions (one ``os.replace`` per transition),
    priorities, and idempotent submission keyed by the same canonical
    content identity the result store uses.
``api``
    The JSON wire schema and :class:`ServiceClient` — submit / status /
    result / cancel / stats over the polling-file transport, transparently
    upgraded to the daemon's Unix-domain socket when it is live (clients
    and the daemon share a service directory either way).
``daemon``
    :class:`ServiceDaemon`, the scheduler draining the queue through the
    fused sweep executor with a bounded worker pool, coalescing work that
    is already stored or already in flight, and recording per-job
    timings and per-cell progress durably.  One daemon serves a service
    directory: it holds an exclusive lock on ``daemon.lock`` while it
    runs, so a second one is refused, and a restart after a crash
    re-queues every job the dead daemon left running.
``socketserver``
    The daemon's Unix-domain-socket front end and its client transport:
    the same JSON envelopes as the polling path, minus the polling floor.
"""

from repro._lazy import lazy_exports

#: Job lifecycle states, in order; each is a sub-directory of a service's
#: ``jobs/`` (see :mod:`repro.service.queue`).  They and the retention
#: default live here, not in the queue, so the CLI's parser reads them
#: without importing the queue and the store beneath it.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

#: Default retention for finished/failed/cancelled job records and their
#: result payloads (``queue gc``): one week.
DEFAULT_JOB_RETAIN_SECONDS = 7 * 86_400.0

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".api": (
            "SERVICE_WIRE_VERSION",
            "ServiceClient",
            "SweepRequest",
            "error_response",
            "ok_response",
            "service_stats",
        ),
        ".daemon": ("ServiceDaemon", "default_daemon_id"),
        ".queue": ("SERVICE_SCHEMA_VERSION", "JobQueue", "JobRecord", "open_service"),
        ".socketserver": ("ServiceSocketServer", "SocketTransport", "discover_socket"),
    },
)
__all__ += ["DEFAULT_JOB_RETAIN_SECONDS", "JOB_STATES"]
