"""Unified observability plane: metrics registry and span tracing.

Every component of the stack — the result store, the trace plane cache,
the job queue, the daemon, its socket server and the sweep orchestrator
— reports through one process-local :class:`~repro.obs.metrics.MetricsRegistry`
instead of ad-hoc per-object counters.  The registry snapshot rides the
daemon's heartbeat, so ``queue stats`` / ``queue top`` / ``repro-dew
metrics`` can read it from files, and the socket ``metrics`` op exposes the
daemon's live numbers in canonical JSON or Prometheus-style text.

:mod:`repro.obs.tracing` adds the time dimension: span records (a trace id
propagated from ``ServiceClient.submit`` through the queue record into the
daemon and down to every executed cell) and the sweep-phase timer that
attributes ``run_sweep`` wall clock to decode / plane-ensure / store-lookup
/ simulate / persist / merge.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    metrics_enabled,
    quantile_from_snapshot,
    render_exposition,
    set_metrics_enabled,
)
from repro.obs.tracing import PhaseTimer, SpanLog, new_trace_id

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PhaseTimer",
    "SpanLog",
    "get_registry",
    "metrics_enabled",
    "new_trace_id",
    "quantile_from_snapshot",
    "render_exposition",
    "set_metrics_enabled",
]
